/**
 * @file
 * Non-packed bootstrapping for BGV and CKKS, following the paper's
 * benchmarks (§7): Alperin-Sheriff–Peikert-style BGV bootstrapping and
 * HEAAN-style CKKS bootstrapping, both non-packed, with L_max = 24 in
 * the evaluation.
 *
 * BGV (t = 2): the exhausted input ciphertext is modulus-switched (on
 * known data) to q̃ = 2^d; a bootstrapping key Enc(s) under plaintext
 * modulus 2^d evaluates the decryption phase u = c̃0 + c̃1*s
 * homomorphically (one plaintext multiply); d-2 homomorphic squarings
 * map u to its least significant bit (u^(2^k) ≡ u mod 2 (mod 2^(k+2))),
 * which *is* the plaintext; the result is reinterpreted under t = 2.
 * This is exact: tests verify end-to-end recryption.
 *
 * CKKS: the input is modulus-raised via RNS basis extension (the
 * ciphertext then decrypts to m + q0*I for a small integer polynomial
 * I), and m is recovered approximately by evaluating
 * (q0/2π)·sin(2πx/q0) with a Taylor polynomial.
 */
#ifndef F1_FHE_BOOTSTRAP_H
#define F1_FHE_BOOTSTRAP_H

#include <cstdint>

#include "fhe/bgv.h"
#include "fhe/ckks.h"

namespace f1 {

/** BGV bootstrapping context (t = 2 non-packed). */
class BgvBootstrapper
{
  public:
    /**
     * @param scheme   BGV scheme with t = 2
     * @param digits   d: precision of the intermediate modulus 2^d;
     *                 depth used is (d - 2) squarings + 1
     */
    BgvBootstrapper(BgvScheme *scheme, uint32_t digits = 8);

    /**
     * Refreshes an exhausted ciphertext: takes ct at any (low) level
     * and returns an equivalent encryption at a higher level with
     * fresh-ish noise. ct must be a 2-poly t=2 ciphertext.
     */
    Ciphertext bootstrap(const Ciphertext &ct);

    /** Level at which bootstrapped ciphertexts emerge. */
    size_t outputLevel() const;

  private:
    BgvScheme *scheme_;
    uint32_t digits_;
    BgvScheme inner_; //!< same key, plaintext modulus 2^d
    Ciphertext bootKey_; //!< Enc_{2^d}(s), the bootstrapping key
};

/** CKKS bootstrapping context (non-packed, HEAAN-style). */
class CkksBootstrapper
{
  public:
    /**
     * @param scheme      CKKS scheme
     * @param taylorDeg   degree of the sine Taylor expansion (odd)
     */
    CkksBootstrapper(CkksScheme *scheme, uint32_t taylorDeg = 7);

    /**
     * Raises an exhausted level-1 ciphertext to the top of the chain
     * and evaluates the sine approximation to remove the q0*I
     * wrap-around term. The result approximates the original plaintext
     * at a higher level (values must satisfy |m| << q0).
     */
    Ciphertext bootstrap(const Ciphertext &ct);

  private:
    /** Angle-halving rounds: the sine argument is divided by 2^r
     *  before the Taylor expansion and recovered with r double-angle
     *  steps. Bounds the argument when the modulus-raise wrap term I
     *  is small (sparse secret keys keep it so, as in HEAAN). */
    static constexpr int kDoublings = 6;

    Ciphertext evalSinePoly(const Ciphertext &y);

    CkksScheme *scheme_;
    uint32_t taylorDeg_;
};

} // namespace f1

#endif // F1_FHE_BOOTSTRAP_H
