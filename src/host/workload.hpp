/**
 * @file
 * Synthetic web-search workload: a Zipf-distributed term corpus with
 * document and query generation.
 *
 * The paper evaluates on live Bing traffic, which is unavailable; this
 * generator produces documents/queries with realistic term-frequency skew
 * so the FFU/DPF feature engines exercise the same code paths (term
 * matches, adjacency, dynamic-programming alignment).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"

namespace ccsim::host {

/** Term ids are dense integers into a synthetic vocabulary. */
using TermId = std::uint32_t;

/** A document: an ordered sequence of terms. */
struct Document {
    std::uint32_t id = 0;
    std::vector<TermId> terms;
};

/** A query: a short ordered sequence of terms. */
struct Query {
    std::uint32_t id = 0;
    std::vector<TermId> terms;
};

/** Generator of Zipf-distributed documents and queries. */
class CorpusGenerator
{
  public:
    /**
     * @param vocab_size Vocabulary size.
     * @param zipf_s     Zipf exponent (1.0 ~ natural language).
     * @param seed       Reproducibility seed.
     */
    CorpusGenerator(std::uint32_t vocab_size = 50000, double zipf_s = 1.0,
                    std::uint64_t seed = 1234);

    /** Generate a document of @p length terms. */
    Document makeDocument(std::size_t length);

    /** Generate a query of @p length terms (biased toward frequent terms). */
    Query makeQuery(std::size_t length);

    /**
     * Generate a document guaranteed to contain the query terms at least
     * once (a plausible "candidate document" from the index).
     */
    Document makeCandidateDocument(const Query &q, std::size_t length);

  private:
    std::uint32_t vocab;
    sim::Rng rng;
    /** Cumulative Zipf distribution for inverse-transform sampling. */
    std::vector<double> cdf;
    std::uint32_t nextDocId = 1;
    std::uint32_t nextQueryId = 1;

    TermId sampleTerm();
};

}  // namespace ccsim::host
