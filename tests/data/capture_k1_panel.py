"""Capture the weight QPs of the k = 1 panel that fail to converge.

The panel fits ``make_shifted_pair([s, 0], n1=200, n2=200, n3=20, m=20,
shift=1.5, rot_deg=30)`` with ``Hyperparams(k=1, tol=1e-12,
max_outer_iters=8)`` for each seed s, with BLAS pinned to one thread. A
wrapper on ``weights.solve`` saves the QP that raises "QP did not converge"
as ``k1_panel_seed{s}.npz``: the raw Hessian factors (indices, coeffs, a,
gamma, b), the linear term c, the bounds, eq_sum and the warm start. A
seed whose fit converges writes no file. The files are written with fixed
zip timestamps, so a re-capture on the same code is byte-equal.

Run from the repository root:

    PYTHONPATH=src python tests/data/capture_k1_panel.py [--seeds 0 1 ...] [--out DIR]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import time  # noqa: E402
import zipfile  # noqa: E402

import numpy as np  # noqa: E402

from subadapt import DatasetPair, Hyperparams, NumericError, cli, trainer, weights  # noqa: E402

PANEL = dict(n1=200, n2=200, n3=20, m=20, shift=1.5, rot_deg=30.0)
HYPERPARAMS = dict(k=1, tol=1e-12, max_outer_iters=8)


def write_npz(path, arrays):
    """np.savez_compressed with a fixed timestamp on every member."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, value in arrays.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.asarray(value), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, buffer.getvalue())


def capture(seed, out_dir):
    """Fit panel seed ``seed``; returns (seconds, path of the saved QP or None)."""
    solve = weights.solve
    saved = []

    def recording(qp, warm_start=None, **kwargs):
        try:
            return solve(qp, warm_start=warm_start, **kwargs)
        except NumericError as error:
            if "did not converge" in str(error):
                path = os.path.join(out_dir, f"k1_panel_seed{seed}.npz")
                h, fixed = qp.h, qp.h.fixed
                write_npz(path, dict(indices=fixed.indices, coeffs=fixed.coeffs, a=fixed.a,
                                     gamma=h.gamma, b=h.b, c=qp.c, lower=qp.lower,
                                     upper=qp.upper, eq_sum=qp.eq_sum,
                                     warm_start=warm_start))
                saved.append(path)
            raise

    sx, sy, tx, ty = cli.make_shifted_pair([seed, 0], **PANEL)
    pair = DatasetPair(sx, sy, tx, ty[:PANEL["n3"]])
    weights.solve = recording
    start = time.perf_counter()
    try:
        trainer.fit(pair, Hyperparams(**HYPERPARAMS))
    except NumericError:
        pass
    finally:
        weights.solve = solve
    return time.perf_counter() - start, (saved[0] if saved else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(8)))
    parser.add_argument("--out", default=os.path.dirname(os.path.abspath(__file__)))
    args = parser.parse_args()
    for seed in args.seeds:
        seconds, path = capture(seed, args.out)
        print(f"seed {seed}: {seconds:.1f} s, " + (f"saved {path}" if path else "converged"),
              flush=True)


if __name__ == "__main__":
    main()
