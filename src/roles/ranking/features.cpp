#include "roles/ranking/features.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/random.hpp"

namespace ccsim::roles {

int
FfuProgram::classify(host::TermId t) const
{
    for (int k = 0; k < numTerms; ++k) {
        if (terms[k] == t)
            return k + 1;
    }
    return 0;
}

FfuProgram
FfuProgram::compile(const host::Query &query)
{
    FfuProgram p;
    p.numTerms = static_cast<int>(
        std::min<std::size_t>(query.terms.size(), kMaxQueryTerms));
    p.terms.assign(query.terms.begin(), query.terms.begin() + p.numTerms);

    const int symbols = kMaxQueryTerms + 1;

    // Term-occurrence counters: one single-state machine per query term k
    // that counts every time symbol k+1 appears.
    for (int k = 0; k < p.numTerms; ++k) {
        FsmMachine m;
        m.transition.resize(1);
        m.countOn.resize(1);
        for (int s = 0; s < symbols; ++s) {
            m.transition[0][s] = 0;
            m.countOn[0][s] = (s == k + 1) ? 1 : 0;
        }
        p.machines.push_back(std::move(m));
        p.machineFeature.push_back(kFeatTermCount0 + k);
    }

    // Adjacency machines: for each adjacent query-term pair (k, k+1),
    // a two-state machine: state 1 means "just saw term k"; seeing term
    // k+1 in state 1 counts an adjacency.
    for (int k = 0; k + 1 < p.numTerms; ++k) {
        FsmMachine m;
        m.transition.resize(2);
        m.countOn.resize(2);
        for (int st = 0; st < 2; ++st) {
            for (int s = 0; s < symbols; ++s) {
                // Default: fall back to state 0 unless we see term k.
                m.transition[st][s] = (s == k + 1) ? 1 : 0;
                m.countOn[st][s] = 0;
            }
        }
        m.countOn[1][k + 2] = 1;  // saw k then k+1
        p.machines.push_back(std::move(m));
        p.machineFeature.push_back(kFeatAdjacency0 + k);
    }
    return p;
}

void
FfuProgram::run(const host::Document &doc, FeatureVector &out) const
{
    std::vector<int> counters(machines.size(), 0);
    std::vector<std::uint8_t> states(machines.size(), 0);

    int streak = 0;
    int max_streak = 0;
    std::uint32_t coverage = 0;
    int first_pos = -1;

    for (std::size_t pos = 0; pos < doc.terms.size(); ++pos) {
        const int sym = classify(doc.terms[pos]);
        for (std::size_t i = 0; i < machines.size(); ++i) {
            const FsmMachine &m = machines[i];
            const std::uint8_t st = states[i];
            counters[i] += m.countOn[st][sym];
            states[i] = m.transition[st][sym];
        }
        // Scanline features.
        if (sym > 0) {
            ++streak;
            max_streak = std::max(max_streak, streak);
            coverage |= 1u << (sym - 1);
            if (first_pos < 0)
                first_pos = static_cast<int>(pos);
        } else {
            streak = 0;
        }
    }

    const double len = std::max<std::size_t>(doc.terms.size(), 1);
    for (std::size_t i = 0; i < machines.size(); ++i)
        out[machineFeature[i]] =
            static_cast<float>(counters[i] / std::sqrt(len));
    out[kFeatMaxStreak] = static_cast<float>(max_streak);
    out[kFeatUniqueCoverage] =
        numTerms > 0
            ? static_cast<float>(std::popcount(coverage)) / numTerms
            : 0.0f;
    out[kFeatFirstPosNorm] =
        first_pos < 0 ? 1.0f : static_cast<float>(first_pos / len);
    out[kFeatDocLenNorm] = static_cast<float>(std::log1p(len) / 10.0);
}

DpfEngine::DpfEngine(const host::Query &query)
{
    const std::size_t n =
        std::min<std::size_t>(query.terms.size(), kMaxQueryTerms);
    terms.assign(query.terms.begin(), query.terms.begin() + n);
}

int
DpfEngine::alignmentScore(const std::vector<host::TermId> &q,
                          const std::vector<host::TermId> &d)
{
    if (q.empty() || d.empty())
        return 0;
    constexpr int kMatch = 2;
    constexpr int kMismatch = -1;
    constexpr int kGap = -1;
    const std::size_t m = q.size();
    std::vector<int> prev(m + 1, 0), cur(m + 1, 0);
    int best = 0;
    for (std::size_t i = 1; i <= d.size(); ++i) {
        cur[0] = 0;
        for (std::size_t j = 1; j <= m; ++j) {
            const int diag =
                prev[j - 1] + (d[i - 1] == q[j - 1] ? kMatch : kMismatch);
            const int up = prev[j] + kGap;
            const int left = cur[j - 1] + kGap;
            cur[j] = std::max({0, diag, up, left});
            best = std::max(best, cur[j]);
        }
        std::swap(prev, cur);
    }
    return best;
}

int
DpfEngine::minCoverWindow(const std::vector<host::TermId> &q,
                          const std::vector<host::TermId> &d)
{
    if (q.empty())
        return 0;
    std::vector<host::TermId> distinct(q);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    auto index_of = [&](host::TermId t) -> int {
        const auto it =
            std::lower_bound(distinct.begin(), distinct.end(), t);
        if (it == distinct.end() || *it != t)
            return -1;
        return static_cast<int>(it - distinct.begin());
    };
    std::vector<int> have(distinct.size(), 0);
    std::size_t satisfied = 0;
    std::size_t left = 0;
    int best = 0;
    for (std::size_t right = 0; right < d.size(); ++right) {
        const int k = index_of(d[right]);
        if (k >= 0 && have[k]++ == 0)
            ++satisfied;
        while (satisfied == distinct.size()) {
            const int window = static_cast<int>(right - left + 1);
            best = best == 0 ? window : std::min(best, window);
            const int lk = index_of(d[left]);
            if (lk >= 0 && --have[lk] == 0)
                --satisfied;
            ++left;
        }
    }
    return best;
}

int
DpfEngine::phraseCount(const std::vector<host::TermId> &q,
                       const std::vector<host::TermId> &d)
{
    if (q.empty() || d.size() < q.size())
        return 0;
    int count = 0;
    for (std::size_t i = 0; i + q.size() <= d.size(); ++i) {
        if (std::equal(q.begin(), q.end(), d.begin() + i))
            ++count;
    }
    return count;
}

void
DpfEngine::run(const host::Document &doc, FeatureVector &out) const
{
    const double norm = std::max<std::size_t>(terms.size(), 1) * 2.0;
    out[kFeatDpfAlignment] =
        static_cast<float>(alignmentScore(terms, doc.terms) / norm);
    const int window = minCoverWindow(terms, doc.terms);
    out[kFeatDpfMinWindow] =
        window == 0
            ? 0.0f
            : static_cast<float>(static_cast<double>(terms.size()) / window);
    out[kFeatDpfPhraseCount] =
        static_cast<float>(phraseCount(terms, doc.terms));
}

RankingModel::RankingModel(std::uint64_t seed)
{
    // Fixed pseudo-random positive-leaning weights: more matching signal
    // scores higher, long windows score lower (negative weight).
    sim::Rng rng(seed);
    for (auto &x : w)
        x = 0.2 + rng.uniform() * 0.8;
    w[kFeatFirstPosNorm] = -0.5;   // later first match is worse
    w[kFeatDocLenNorm] = -0.2;     // length prior
    bias = -2.0;
}

double
RankingModel::score(const FeatureVector &f) const
{
    double z = bias;
    for (int i = 0; i < kNumFeatures; ++i)
        z += w[i] * f[i];
    return 1.0 / (1.0 + std::exp(-z));
}

std::vector<ScoredDocument>
rankDocuments(const host::Query &query,
              const std::vector<host::Document> &candidates,
              const RankingModel &model)
{
    const FfuProgram ffu = FfuProgram::compile(query);
    const DpfEngine dpf(query);
    std::vector<ScoredDocument> results;
    results.reserve(candidates.size());
    for (const auto &doc : candidates) {
        FeatureVector f{};
        ffu.run(doc, f);
        dpf.run(doc, f);
        results.push_back({doc.id, model.score(f)});
    }
    std::sort(results.begin(), results.end(),
              [](const ScoredDocument &a, const ScoredDocument &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.docId < b.docId;
              });
    return results;
}

}  // namespace ccsim::roles
