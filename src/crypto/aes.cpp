#include "crypto/aes.hpp"

#include <cstring>

namespace ccsim::crypto {

namespace {

// FIPS-197 S-box.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

std::uint8_t
gmul(std::uint8_t a, std::uint8_t b)
{
    std::uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

/** Big-endian increment of a whole 16-byte counter block. */
void
incrementCounter(Block &ctr)
{
    for (int i = 15; i >= 0; --i) {
        if (++ctr[i] != 0)
            break;
    }
}

}  // namespace

Aes128::Aes128(const Key128 &key)
{
    std::memcpy(roundKeys[0].data(), key.data(), 16);
    for (int round = 1; round <= kRounds; ++round) {
        const auto &prev = roundKeys[round - 1];
        auto &rk = roundKeys[round];
        // RotWord + SubWord + Rcon on the last word of the previous key.
        std::uint8_t t[4] = {kSbox[prev[13]], kSbox[prev[14]],
                             kSbox[prev[15]], kSbox[prev[12]]};
        t[0] ^= kRcon[round];
        for (int i = 0; i < 4; ++i)
            rk[i] = prev[i] ^ t[i];
        for (int i = 4; i < 16; ++i)
            rk[i] = prev[i] ^ rk[i - 4];
    }
}

void
Aes128::encryptBlock(Block &b) const
{
    auto add_round_key = [&](int round) {
        for (int i = 0; i < 16; ++i)
            b[i] ^= roundKeys[round][i];
    };
    auto sub_bytes = [&] {
        for (auto &x : b)
            x = kSbox[x];
    };
    auto shift_rows = [&] {
        // Row r rotates left by r (column-major state layout).
        std::uint8_t t = b[1];
        b[1] = b[5]; b[5] = b[9]; b[9] = b[13]; b[13] = t;
        std::swap(b[2], b[10]);
        std::swap(b[6], b[14]);
        t = b[15];
        b[15] = b[11]; b[11] = b[7]; b[7] = b[3]; b[3] = t;
    };
    auto mix_columns = [&] {
        for (int c = 0; c < 4; ++c) {
            std::uint8_t *col = &b[4 * c];
            const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2],
                               a3 = col[3];
            col[0] = static_cast<std::uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^
                                               a2 ^ a3);
            col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^
                                               a2 ^ a3);
            col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^
                                               xtime(a3) ^ a3);
            col[3] = static_cast<std::uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^
                                               xtime(a3));
        }
    };

    add_round_key(0);
    for (int round = 1; round < kRounds; ++round) {
        sub_bytes();
        shift_rows();
        mix_columns();
        add_round_key(round);
    }
    sub_bytes();
    shift_rows();
    add_round_key(kRounds);
}

void
Aes128::decryptBlock(Block &b) const
{
    auto add_round_key = [&](int round) {
        for (int i = 0; i < 16; ++i)
            b[i] ^= roundKeys[round][i];
    };
    auto inv_sub_bytes = [&] {
        for (auto &x : b)
            x = kInvSbox[x];
    };
    auto inv_shift_rows = [&] {
        std::uint8_t t = b[13];
        b[13] = b[9]; b[9] = b[5]; b[5] = b[1]; b[1] = t;
        std::swap(b[2], b[10]);
        std::swap(b[6], b[14]);
        t = b[3];
        b[3] = b[7]; b[7] = b[11]; b[11] = b[15]; b[15] = t;
    };
    auto inv_mix_columns = [&] {
        for (int c = 0; c < 4; ++c) {
            std::uint8_t *col = &b[4 * c];
            const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2],
                               a3 = col[3];
            col[0] = static_cast<std::uint8_t>(gmul(a0, 14) ^ gmul(a1, 11) ^
                                               gmul(a2, 13) ^ gmul(a3, 9));
            col[1] = static_cast<std::uint8_t>(gmul(a0, 9) ^ gmul(a1, 14) ^
                                               gmul(a2, 11) ^ gmul(a3, 13));
            col[2] = static_cast<std::uint8_t>(gmul(a0, 13) ^ gmul(a1, 9) ^
                                               gmul(a2, 14) ^ gmul(a3, 11));
            col[3] = static_cast<std::uint8_t>(gmul(a0, 11) ^ gmul(a1, 13) ^
                                               gmul(a2, 9) ^ gmul(a3, 14));
        }
    };

    add_round_key(kRounds);
    for (int round = kRounds - 1; round >= 1; --round) {
        inv_shift_rows();
        inv_sub_bytes();
        add_round_key(round);
        inv_mix_columns();
    }
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(0);
}

void
AesCbc::encrypt(std::uint8_t *data, std::size_t len) const
{
    Block chain = ivBlock;
    for (std::size_t off = 0; off + 16 <= len; off += 16) {
        for (int i = 0; i < 16; ++i)
            chain[i] ^= data[off + i];
        aes.encryptBlock(chain);
        std::memcpy(data + off, chain.data(), 16);
    }
}

void
AesCbc::decrypt(std::uint8_t *data, std::size_t len) const
{
    Block chain = ivBlock;
    for (std::size_t off = 0; off + 16 <= len; off += 16) {
        Block ct;
        std::memcpy(ct.data(), data + off, 16);
        Block pt = ct;
        aes.decryptBlock(pt);
        for (int i = 0; i < 16; ++i)
            data[off + i] = pt[i] ^ chain[i];
        chain = ct;
    }
}

std::vector<std::uint8_t>
pkcs7Pad(const std::uint8_t *data, std::size_t len)
{
    const std::size_t pad = 16 - (len % 16);
    std::vector<std::uint8_t> out(len + pad);
    if (len > 0)
        std::memcpy(out.data(), data, len);
    for (std::size_t i = 0; i < pad; ++i)
        out[len + i] = static_cast<std::uint8_t>(pad);
    return out;
}

std::size_t
pkcs7Unpad(const std::uint8_t *data, std::size_t len)
{
    if (len == 0 || len % 16 != 0)
        return SIZE_MAX;
    const std::uint8_t pad = data[len - 1];
    if (pad == 0 || pad > 16 || pad > len)
        return SIZE_MAX;
    for (std::size_t i = len - pad; i < len; ++i) {
        if (data[i] != pad)
            return SIZE_MAX;
    }
    return len - pad;
}

AesGcm::AesGcm(const Key128 &key) : aes(key)
{
    hashKey.fill(0);
    aes.encryptBlock(hashKey);
}

Block
AesGcm::gfMult(const Block &x, const Block &y)
{
    // Right-shift GF(2^128) multiplication per SP 800-38D, bit by bit.
    Block z{};
    Block v = y;
    for (int i = 0; i < 128; ++i) {
        const int byte = i / 8;
        const int bit = 7 - (i % 8);
        if ((x[byte] >> bit) & 1) {
            for (int j = 0; j < 16; ++j)
                z[j] ^= v[j];
        }
        const bool lsb = v[15] & 1;
        // v >>= 1 (big-endian bit order).
        for (int j = 15; j > 0; --j)
            v[j] = static_cast<std::uint8_t>((v[j] >> 1) | (v[j - 1] << 7));
        v[0] >>= 1;
        if (lsb)
            v[0] ^= 0xe1;
    }
    return z;
}

Block
AesGcm::ghash(const std::uint8_t *aad, std::size_t aad_len,
              const std::uint8_t *ct, std::size_t ct_len) const
{
    Block y{};
    auto absorb = [&](const std::uint8_t *data, std::size_t len) {
        for (std::size_t off = 0; off < len; off += 16) {
            const std::size_t n = std::min<std::size_t>(16, len - off);
            for (std::size_t i = 0; i < n; ++i)
                y[i] ^= data[off + i];
            y = gfMult(y, hashKey);
        }
    };
    absorb(aad, aad_len);
    absorb(ct, ct_len);
    // Length block: 64-bit bit-lengths of AAD and ciphertext.
    Block lens{};
    const std::uint64_t aad_bits = static_cast<std::uint64_t>(aad_len) * 8;
    const std::uint64_t ct_bits = static_cast<std::uint64_t>(ct_len) * 8;
    for (int i = 0; i < 8; ++i) {
        lens[7 - i] = static_cast<std::uint8_t>(aad_bits >> (8 * i));
        lens[15 - i] = static_cast<std::uint8_t>(ct_bits >> (8 * i));
    }
    for (int i = 0; i < 16; ++i)
        y[i] ^= lens[i];
    return gfMult(y, hashKey);
}

void
AesGcm::encrypt(const std::uint8_t iv[12], const std::uint8_t *aad,
                std::size_t aad_len, std::uint8_t *data, std::size_t len,
                Block &tag_out)
{
    // J0 = IV || 0^31 || 1 for 96-bit IVs.
    Block j0{};
    std::memcpy(j0.data(), iv, 12);
    j0[15] = 1;

    // CTR encryption starting at inc(J0).
    Block counter = j0;
    incrementCounter(counter);
    std::size_t off = 0;
    while (off < len) {
        Block keystream = counter;
        aes.encryptBlock(keystream);
        const std::size_t n = std::min<std::size_t>(16, len - off);
        for (std::size_t i = 0; i < n; ++i)
            data[off + i] ^= keystream[i];
        incrementCounter(counter);
        off += n;
    }

    // Tag = GHASH(AAD, CT) xor AES_K(J0).
    Block s = ghash(aad, aad_len, data, len);
    Block ek_j0 = j0;
    aes.encryptBlock(ek_j0);
    for (int i = 0; i < 16; ++i)
        tag_out[i] = s[i] ^ ek_j0[i];
}

bool
AesGcm::decrypt(const std::uint8_t iv[12], const std::uint8_t *aad,
                std::size_t aad_len, std::uint8_t *data, std::size_t len,
                const Block &tag)
{
    // Authenticate the ciphertext before decrypting.
    Block s = ghash(aad, aad_len, data, len);
    Block j0{};
    std::memcpy(j0.data(), iv, 12);
    j0[15] = 1;
    Block ek_j0 = j0;
    aes.encryptBlock(ek_j0);
    std::uint8_t diff = 0;
    for (int i = 0; i < 16; ++i)
        diff |= static_cast<std::uint8_t>((s[i] ^ ek_j0[i]) ^ tag[i]);

    // Decrypt (CTR starting at inc(J0)).
    Block counter = j0;
    incrementCounter(counter);
    std::size_t off = 0;
    while (off < len) {
        Block keystream = counter;
        aes.encryptBlock(keystream);
        const std::size_t n = std::min<std::size_t>(16, len - off);
        for (std::size_t i = 0; i < n; ++i)
            data[off + i] ^= keystream[i];
        incrementCounter(counter);
        off += n;
    }
    return diff == 0;
}

}  // namespace ccsim::crypto
