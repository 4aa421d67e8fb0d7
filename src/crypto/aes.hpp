/**
 * @file
 * Self-contained AES-128 with CBC and GCM modes (GCM runs CTR internally).
 *
 * The network-acceleration role (Section IV of the paper) encrypts real
 * packet payloads, so this is a real, test-vector-verified implementation,
 * not a stand-in. Performance is adequate for simulation; the paper's
 * hardware/software *timing* claims are modelled separately in
 * crypto_timing.hpp.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ccsim::crypto {

/** A 16-byte AES block. */
using Block = std::array<std::uint8_t, 16>;

/** A 16-byte AES-128 key. */
using Key128 = std::array<std::uint8_t, 16>;

/** AES-128 block cipher (FIPS-197). */
class Aes128
{
  public:
    /** Expand @p key into the round-key schedule. */
    explicit Aes128(const Key128 &key);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(Block &block) const;

    /** Decrypt one 16-byte block in place. */
    void decryptBlock(Block &block) const;

  private:
    static constexpr int kRounds = 10;
    std::array<std::array<std::uint8_t, 16>, kRounds + 1> roundKeys;
};

/**
 * AES-128-CBC.
 *
 * Operates on whole blocks; callers pad to a 16-byte multiple (the crypto
 * role pads packets with PKCS#7). Note the hardware-relevant property the
 * paper discusses: CBC encryption is serially dependent block to block,
 * which is why the FPGA implementation interleaves 33 packets.
 */
class AesCbc
{
  public:
    AesCbc(const Key128 &key, const Block &iv) : aes(key), ivBlock(iv) {}

    /** Encrypt @p data (length must be a multiple of 16) in place. */
    void encrypt(std::uint8_t *data, std::size_t len) const;

    /** Decrypt @p data (length must be a multiple of 16) in place. */
    void decrypt(std::uint8_t *data, std::size_t len) const;

  private:
    Aes128 aes;
    Block ivBlock;
};

/** PKCS#7 padding helpers used by the crypto role. */
std::vector<std::uint8_t> pkcs7Pad(const std::uint8_t *data, std::size_t len);
/** @return padded-length minus pad, or SIZE_MAX if the padding is invalid. */
std::size_t pkcs7Unpad(const std::uint8_t *data, std::size_t len);

/**
 * AES-128-GCM authenticated encryption (NIST SP 800-38D).
 *
 * Unlike CBC, every block is independent, which is why (per the paper) the
 * FPGA can perfectly pipeline GCM.
 */
class AesGcm
{
  public:
    explicit AesGcm(const Key128 &key);

    /**
     * Encrypt and authenticate.
     *
     * @param iv      96-bit IV (12 bytes), the standard fast path.
     * @param aad     Additional authenticated data (may be empty).
     * @param data    Plaintext in, ciphertext out (in place).
     * @param len     Data length in bytes (any length).
     * @param tag_out 16-byte authentication tag.
     */
    void encrypt(const std::uint8_t iv[12], const std::uint8_t *aad,
                 std::size_t aad_len, std::uint8_t *data, std::size_t len,
                 Block &tag_out);

    /**
     * Decrypt and verify.
     *
     * @return true if the tag verified; on false, data contents are the
     *         (untrusted) decryption and must be discarded.
     */
    bool decrypt(const std::uint8_t iv[12], const std::uint8_t *aad,
                 std::size_t aad_len, std::uint8_t *data, std::size_t len,
                 const Block &tag);

  private:
    Aes128 aes;
    Block hashKey;  ///< H = AES_K(0^128)

    Block ghash(const std::uint8_t *aad, std::size_t aad_len,
                const std::uint8_t *ct, std::size_t ct_len) const;
    static Block gfMult(const Block &x, const Block &y);
};

}  // namespace ccsim::crypto
