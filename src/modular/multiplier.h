/**
 * @file
 * The four modular-multiplier designs compared in the paper's Table 1:
 * Barrett, Montgomery, NTT-friendly (Mert et al. [51]) and the paper's
 * FHE-friendly design (§5.3).
 *
 * Each class implements the same functional contract — mul(a, b) ==
 * a * b mod q — using the algorithm the corresponding hardware design
 * implements, and carries the synthesized area/power/delay reported in
 * Table 1 so the area and power models can compose them.
 */
#ifndef F1_MODULAR_MULTIPLIER_H
#define F1_MODULAR_MULTIPLIER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace f1 {

/** Synthesis characteristics of a multiplier design (paper Table 1). */
struct MultiplierCost
{
    double areaUm2;  //!< area in square microns (14/12nm)
    double powerMw;  //!< power in milliwatts
    double delayPs;  //!< critical-path delay in picoseconds
};

/** Common interface: word-sized modular multiplication for a fixed q. */
class ModMultiplier
{
  public:
    virtual ~ModMultiplier() = default;

    /** a * b mod q; a, b already reduced mod q. */
    virtual uint32_t mul(uint32_t a, uint32_t b) const = 0;

    virtual const char *name() const = 0;
    virtual MultiplierCost cost() const = 0;

    uint32_t modulus() const { return q_; }

  protected:
    explicit ModMultiplier(uint32_t q) : q_(q) {}
    uint32_t q_;
};

/**
 * Barrett reduction: approximates the quotient with a precomputed
 * mu = floor(2^64 / q). Works for any modulus below 2^31 (no
 * congruence restrictions), at the highest hardware cost of the four
 * designs. mul() is mulModBarrett (modarith.h), the same multiply the
 * software element-wise products run.
 */
class BarrettMultiplier : public ModMultiplier
{
  public:
    explicit BarrettMultiplier(uint32_t q);
    uint32_t mul(uint32_t a, uint32_t b) const override;
    const char *name() const override { return "Barrett"; }
    MultiplierCost cost() const override { return {5271.0, 18.40, 1317.0}; }

  private:
    uint64_t mu_; //!< floor(2^64 / q)
};

/**
 * Montgomery multiplication with R = 2^32. Requires q odd. Operands are
 * kept in the standard domain; mul() performs REDC(a*b) followed by a
 * REDC against R^2 mod q to return to the standard domain, mirroring a
 * hardware design whose datapath is a pair of REDC stages.
 */
class MontgomeryMultiplier : public ModMultiplier
{
  public:
    explicit MontgomeryMultiplier(uint32_t q);
    uint32_t mul(uint32_t a, uint32_t b) const override;
    const char *name() const override { return "Montgomery"; }
    MultiplierCost cost() const override { return {2916.0, 9.29, 1040.0}; }

    /** REDC(T) = T * 2^-32 mod q for T < q * 2^32; exposed for reuse. */
    uint32_t redc(uint64_t t) const;

  protected:
    uint32_t qInvNeg_; //!< -q^-1 mod 2^32
    uint32_t r2_;      //!< 2^64 mod q
};

/**
 * NTT-friendly multiplier (Mert et al. [51]): word-level Montgomery
 * with 16-bit digits, exploiting q ≡ 1 (mod 2^16) — which NTT moduli
 * with N >= 2^15 satisfy — so each of the two reduction rounds needs
 * only a 16x16 product for the m-digit and a shifted add for m*q.
 */
class NttFriendlyMultiplier : public ModMultiplier
{
  public:
    explicit NttFriendlyMultiplier(uint32_t q);
    uint32_t mul(uint32_t a, uint32_t b) const override;
    const char *name() const override { return "NTT-friendly"; }
    MultiplierCost cost() const override { return {2165.0, 5.36, 1000.0}; }

  protected:
    uint32_t qInvNegLo_; //!< -q^-1 mod 2^16
    uint32_t r2_;        //!< 2^64 mod q

    uint32_t redcDigits(uint64_t t) const;
};

/**
 * FHE-friendly multiplier (paper §5.3): restrict moduli so that the
 * per-digit Montgomery constant is trivial (-q^-1 ≡ ±1 mod 2^16),
 * removing the 16x16 multiplier stage that computes the m-digit. The
 * paper states q ≡ -1 (mod 2^16); combined with the negacyclic-NTT
 * requirement q ≡ 1 (mod 2N) this library uses q ≡ 1 (mod 2^16), for
 * which -q^-1 ≡ -1 (mod 2^16) and the stage degenerates to a negation
 * (see DESIGN.md §2.6). About 6,000 32-bit primes satisfy it.
 */
class FheFriendlyMultiplier : public ModMultiplier
{
  public:
    explicit FheFriendlyMultiplier(uint32_t q);
    uint32_t mul(uint32_t a, uint32_t b) const override;
    const char *name() const override { return "FHE-friendly"; }
    MultiplierCost cost() const override { return {1817.0, 4.10, 1000.0}; }

  private:
    uint32_t r2_; //!< 2^64 mod q

    uint32_t redcTrivial(uint64_t t) const;
};

/** Instantiate all four designs for modulus q (q must satisfy the
 *  FHE-friendly congruence; library moduli always do). */
std::vector<std::unique_ptr<ModMultiplier>> makeAllMultipliers(uint32_t q);

} // namespace f1

#endif // F1_MODULAR_MULTIPLIER_H
