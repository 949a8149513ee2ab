/**
 * @file
 * RGSW (ring-GSW, paper §2.5): asymmetric-noise-growth scheme built on
 * the same primitives as BGV/CKKS. A GSW ciphertext is a pair of
 * gadget-decomposed RLWE rows (RLWE'(m), RLWE'(s*m)); the external
 * product RGSW(m2) ⊡ RLWE(m1) -> RLWE(m1*m2) reuses the RNS digit
 * decomposition of the key-switching unit, which is why F1 supports
 * GSW with the same hardware.
 */
#ifndef F1_FHE_GSW_H
#define F1_FHE_GSW_H

#include <cstdint>
#include <vector>

#include "fhe/bgv.h"
#include "fhe/ciphertext.h"
#include "fhe/fhe_context.h"
#include "fhe/keyswitch.h"

namespace f1 {

/**
 * RLWE'(w): for each digit i < level, an RLWE sample whose phase is
 * errScale*e + P_i*w (P_i the CRT selector constant, §keyswitch).
 */
struct RlwePrime
{
    std::vector<RnsPoly> a, b; //!< one pair per digit
};

struct RgswCiphertext
{
    RlwePrime cm;  //!< RLWE'(m)
    RlwePrime csm; //!< RLWE'(s*m)
    size_t level = 0;

    size_t sizeRVecs() const
    {
        size_t c = 0;
        for (const auto &p : cm.a)
            c += 2 * p.levels();
        for (const auto &p : csm.a)
            c += 2 * p.levels();
        return c;
    }
};

class GswScheme
{
  public:
    /**
     * GSW shares the secret key and plaintext modulus of a BGV scheme
     * so the two can interoperate (external products on BGV
     * ciphertexts).
     */
    explicit GswScheme(BgvScheme *bgv);

    /** Encrypts a small scalar m (typically a bit). Every encryption
     *  draws fresh masks and errors from the scheme's stream (not
     *  thread-safe). */
    RgswCiphertext encryptScalar(uint64_t m, size_t level);

    /**
     * External product: RLWE(m1) x RGSW(m2) -> RLWE(m1*m2) with noise
     * growing only additively in the RGSW noise (the GSW asymmetry).
     */
    Ciphertext externalProduct(const Ciphertext &rlwe,
                               const RgswCiphertext &rgsw) const;

    /**
     * CMux gate: selects ct0 when the RGSW bit is 0, ct1 when 1:
     * ct0 + bit ⊡ (ct1 - ct0).
     */
    Ciphertext cmux(const RgswCiphertext &bit, const Ciphertext &ct0,
                    const Ciphertext &ct1) const;

  private:
    RlwePrime encryptRlwePrime(const RnsPoly &w, size_t level);

    BgvScheme *bgv_;
    const FheContext *ctx_;
    KeySwitcher switcher_; //!< the digit decomposition
    Rng rng_;              //!< encryption randomness
};

} // namespace f1

#endif // F1_FHE_GSW_H
