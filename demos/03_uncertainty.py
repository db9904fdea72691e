"""Uncertainty-principle checks on one windowed-transform setup.

Prints each inequality with both sides and its margin: the support-area
product bound, the weighted-norm (Pitt-type) sweep, the logarithmic
bound (that sweep's derivative at alpha = 0), Gaussian decay-rate fits,
and the growth-weighted diagnostic integral.
"""

from qtfa import (Axis, OlctParams, QftPlan, StqolctPlan, beurling_integral,
                  donoho_stark_check, field_w_energy_map, gaussian_signal,
                  hardy_decay_fit, log_up_check, pitt_check, qft_forward,
                  qft_modulus, stqolct_forward)


def show(res):
    state = "pass" if res.passed else "FAIL"
    print(f"  [{state}] {res.name:20s} lhs={res.lhs:12.6g} rhs={res.rhs:12.6g} "
          f"margin={res.margin:10.3g} {res.params}")


def main():
    ax = Axis.centered(32, 8.0)
    f = gaussian_signal(ax, ax, 1.0)
    window = gaussian_signal(ax, ax, 2.0)
    params = OlctParams(0.6, 0.5, -0.8, 1.0, p=0.3, q=-0.2)
    plan = StqolctPlan.create(params, params, ax, ax, window, stride=1)

    print("building the stride-1 coefficient field...")
    field = stqolct_forward(f, plan)
    marginal = field_w_energy_map(field)

    print("\nsupport-area product bound at several concentration levels:")
    for eps in (0.0, 0.1, 0.25):
        show(donoho_stark_check(f, plan, eps, eps, marginal=marginal))

    print("\nweighted-norm inequality sweep (equality at alpha = 0):")
    for alpha in (0.0, 0.25, 0.5, 1.0, 1.5):
        show(pitt_check(f, plan, alpha, marginal=marginal))

    print("\nlogarithmic bound, the sweep's derivative at alpha = 0:")
    show(log_up_check(f, plan, marginal=marginal))

    print("\nGaussian decay-rate fits on the Fourier side (4*alpha*beta = 1):")
    ax128 = Axis.centered(128, 8.0)
    qplan = QftPlan.for_axes(ax128, ax128)
    for alpha in (0.25, 0.5, 1.0, 2.0):
        F = qft_forward(gaussian_signal(ax128, ax128, alpha), qplan)
        fit = hardy_decay_fit(qft_modulus(F), qplan.w1.coords, qplan.w2.coords, 3.0)
        print(f"  alpha={alpha:5.2f}: beta={fit.beta:.6f} "
              f"4*alpha*beta={4 * alpha * fit.beta:.6f} r2={fit.r2:.6f}")

    print("\ngrowth-weighted diagnostic integral on a compact grid:")
    ax4 = Axis.centered(16, 4.0)
    f4 = gaussian_signal(ax4, ax4, 1.0)
    w4 = gaussian_signal(ax4, ax4, 2.0)
    plan4 = StqolctPlan.create(params, params, ax4, ax4, w4, stride=1)
    for d in (0.0, 2.0, 4.0):
        res = beurling_integral(f4, plan4, d)
        print(f"  d={d}: value={res.value:.6g} saturated={res.saturated}")


if __name__ == "__main__":
    main()
