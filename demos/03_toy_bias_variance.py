"""The toy bias-variance study: three 1-D models x three weight schemes.

Model 1 (eta = 0, unit noise) is all variance: uniform averaging wins and
the interpolating schemes fluctuate wildly. Model 2 (eta = x^2, noiseless)
is all bias: the faster phi blows up at 0, the smaller the bias, so
phi(t) = 1/t wins. Model 3 mixes both and shows the trade-off.
"""
import pathlib

import numpy as np

from interpnn import EstimatorConfig, fit, phi_catalog, predict_regression_batch, toy_models
from interpnn.plotting import Series, line_plot_svg

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

SCHEMES = ("uniform", "one_minus_log", "power")
x_eval = np.arange(0.0, 20.0 + 1e-9, 0.25).reshape(-1, 1)
rng = np.random.default_rng(7)

for mi, model in enumerate(toy_models(), start=1):
    train = model.sample(rng, None)
    eta = model.eta(x_eval)
    print(f"\n=== toy model {mi} ({model.name})")
    series = [Series(x_eval[:, 0], eta, label="true eta", markers=False)]
    for name in SCHEMES:
        est = fit(train, EstimatorConfig(k=10, scheme=phi_catalog(name)))
        pred = predict_regression_batch(est, x_eval)
        mse = float(np.mean((pred - eta) ** 2))
        print(f"  {name:14s} MSE vs true eta on the interior: {mse:10.4f}")
        series.append(Series(x_eval[:, 0], pred, label=name, markers=False))
    line_plot_svg(OUT / f"toy_model{mi}.svg", series, title=f"toy model {mi}", xlabel="x", ylabel="eta")
    print(f"  wrote {OUT / f'toy_model{mi}.svg'}")

print("\nModel 1 favors uniform (pure-variance regime); model 2 favors phi(t) = 1/t")
print("(pure-bias regime); faster-diverging phi trades variance for bias.")
