#pragma once
// The optimal ate pairing on BN254 (Vercauteren, "Optimal Pairings", 2010;
// the pairing of EIP-197).
//
// e : G2 x G1 -> mu_r in Fq12,
// e(Q, P) = (f_{6x+2,Q}(P) l_{T,psi(Q)}(P) l_{T',-psi^2(Q)}(P)) ^ ((q^12 - 1) / r)
// with T = [6x + 2]Q and T' = T + psi(Q): the Miller loop walks the signed
// binary digits of 6x + 2 (65 doublings, 21 additions of +-Q), then adds the
// two lines through the Frobenius images of Q.
//
// The Miller schedule for a G2 point is run once in homogeneous projective
// Fq2 coordinates, storing one line-coefficient triple per step
// (`G2Prepared`). The Miller loop itself is then inversion-free: each step
// squares the accumulator and folds in the precomputed line with a sparse
// `Fq12::mul_by_034`, touching the G1 point only through two Fq2-by-Fq
// scalar products. The final exponentiation runs its easy part with
// conjugation/Frobenius and its hard part (q^4 - q^2 + 1)/r with the exact
// Devegili/Scott addition chain in the BN parameter x, using cyclotomic
// squarings throughout.
//
// Line format: with the untwist (x, y) -> (x w^2, y w^3) (w^6 = xi), every
// chord/tangent line evaluated at P = (px, py) has the sparse w-basis shape
//     l(P) = (ell_vw * py) + (ell_vv * px) w + ell_0 w^3,
// all coefficients in Fq2 and determined by the G2 schedule alone. Line
// coefficients carry per-step Fq2 scale factors from the projective
// formulas, and the -Q additions drop vertical lines; all of those lie in
// Fq6, which the easy part of the final exponentiation kills, so pairing
// outputs are bit-identical to the textbook optimal ate pairing (affine
// chord-tangent lines in full Fq12 over the plain binary digits of 6x + 2,
// Frobenius lines from Fq12 Frobenius powers, generic-pow hard part), which
// lives with the tests as an oracle (tests/kernel_oracles.h) and is pinned
// by tests/test_pairing_fast.cpp.
//
// Verified by bilinearity/non-degeneracy property tests in tests/test_ec.cpp
// and fast-vs-textbook bit-equality tests in tests/test_pairing_fast.cpp.

#include <vector>

#include "ec/bn254_groups.h"
#include "field/fp12.h"

namespace zl {

/// One precomputed Miller-step line (see the header comment for the sparse
/// evaluation shape).
struct LineCoefficients {
  Fq2 ell_0;   // constant w^3 coefficient
  Fq2 ell_vw;  // multiplied by y_P (w^0 coefficient)
  Fq2 ell_vv;  // multiplied by x_P (w^1 coefficient)
};

/// A G2 point with its full Miller schedule precomputed: one
/// `LineCoefficients` per doubling step, one per addition step, and the two
/// Frobenius lines, in loop order. Preparing costs one pass of projective
/// Fq2 point arithmetic; every subsequent Miller loop against the same point
/// reuses the table.
class G2Prepared {
 public:
  /// Prepared point at infinity (pairing degenerates to one).
  G2Prepared() = default;
  explicit G2Prepared(const G2& q);

  bool is_infinity() const { return infinity_; }
  const std::vector<LineCoefficients>& coefficients() const { return coeffs_; }

  /// Whether the point lies in G2, the order-r subgroup of the twist
  /// (EIP-197 requires the check; the random-linear-combination batch in
  /// snark::verify_batch relies on it). Read off the schedule at no extra
  /// cost: its running point ends at [6x + 2]Q + psi(Q) - psi^2(Q), compared
  /// with -psi^3(Q). So the test is alpha(Q) == O for the endomorphism
  /// alpha = 6x + 2 + psi - psi^2 + psi^3, and it is exact:
  ///   - On G2, psi acts as q (mod r), and 6x + 2 + q - q^2 + q^3 = 0
  ///     (mod r), so alpha kills G2.
  ///   - Reduced by psi^2 = t psi - q (t = 6x^2 + 1), alpha = a + b psi, of
  ///     degree N(alpha) = a^2 + t ab + q b^2 = r m, with gcd(m, 2q - r) = 1.
  ///   - The twist group E'(Fq2) has order r (2q - r). The points of it that
  ///     alpha kills form a subgroup whose order divides both r m and
  ///     r (2q - r), hence divides r: that subgroup is G2.
  /// An addition step that meets +-its summand (possible only off G2)
  /// leaves Z = 0, which reads as "not in G2". Pinned against
  /// in_prime_subgroup(), and the norm identity checked in BigInt
  /// arithmetic, by tests/test_pairing_fast.cpp. The point at infinity is in
  /// G2.
  bool in_g2() const { return in_g2_; }

 private:
  bool infinity_ = true;
  bool in_g2_ = true;
  std::vector<LineCoefficients> coeffs_;
};

/// Miller loop against a prepared G2 point (no final exponentiation). Throws
/// if either input is infinity. The raw Miller value is defined up to Fq2
/// factors relative to the textbook implementation; after
/// `final_exponentiation` the results coincide exactly.
Fq12 miller_loop(const G2Prepared& q, const G1& p);

/// Convenience overload: prepares `q` and runs the loop once.
Fq12 miller_loop(const G2& q, const G1& p);

/// (q^12-1)/r-th power, mapping Miller values into mu_r.
Fq12 final_exponentiation(const Fq12& f);

/// Full pairing. By convention pairing(Q, P) with Q in G2, P in G1; returns
/// Fq12::one() if either input is the point at infinity (the degenerate
/// bilinear extension).
Fq12 pairing(const G2& q, const G1& p);
Fq12 pairing(const G2Prepared& q, const G1& p);

/// Product of pairings: prod_i e(Q_i, P_i), as one multi-Miller loop and one
/// final exponentiation.
Fq12 pairing_product(const std::vector<std::pair<G2, G1>>& pairs);

/// Prepared overload, and the one pairing-product path: the unprepared one
/// prepares its G2 points and lands here. Pointers must be non-null and
/// outlive the call; infinity entries (on either side) contribute the factor
/// one. The finite pairs share one Fq12 accumulator, squared once per Miller
/// step for all of them; on the thread pool each slice of pairs keeps its own
/// partial accumulator, and the partials are multiplied before the single
/// final exponentiation (Fq12 arithmetic is exact, so the slicing is
/// invisible in the result).
Fq12 pairing_product(const std::vector<std::pair<const G2Prepared*, G1>>& pairs);

/// The untwist-Frobenius-twist endomorphism psi of the twist curve (the
/// Frobenius lines and the G2 test of G2Prepared::in_g2 rest on it; tests
/// pin its equation): psi(x, y) = (conj(x) xi^((q-1)/3), conj(y)
/// xi^((q-1)/2)). It satisfies psi^2 - t psi + q = 0 (t = 6x^2 + 1, the
/// trace of Frobenius), and on G2 it acts as multiplication by q = 6x^2
/// (mod r).
G2 g2_psi(const G2& q);

}  // namespace zl
