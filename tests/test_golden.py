"""Golden hashes of trajectory files: a refactor of the drivers must not move a byte.

Each case runs ``run_experiment`` with a small iteration budget and compares
the SHA-256 of the trajectory CSV (and, where recorded, of the eigen sidecar)
with the value recorded for it. The matrix covers every algorithm on an exact
saddle, jittered starts, a run that exhausts its budget, a region exit, a
problem without a dense-Hessian shortcut, the curvature-aware surrogate on a
diagonal Hessian and on tridiagonal ones that are indefinite (eigensolver path)
and positive definite (Cholesky path) at every anchor, and the eigen sidecar. A hash may change
only with a deliberate change of the file format or of a trajectory, named in a
comment next to the new value.
"""

import hashlib

import pytest

from scaopt import cli, drivers

PROBLEMS = {
    "quartic": dict(problem="saddle_quartic:d=10", max_iters=3000),
    "quartic_jitter": dict(problem="saddle_quartic:d=10", max_iters=3000, jitter=0.1),
    "rosenbrock_jitter": dict(problem="rosenbrock:d=10", max_iters=1500, jitter=0.1),
    "indefinite": dict(problem="quadratic_indefinite:d=3", max_iters=500, delta_u=1.0),
    "mf": dict(problem="matrix_factorization:d=6,r=2", max_iters=1500),
}

CASES = {
    f"{name}-{algo}-seed{seed}": dict(kw, algo=algo, seed=seed)
    for name, kw in PROBLEMS.items()
    for algo in cli.ALGOS
    for seed in (0, 1)
}
CASES["quartic_jitter-quadratic_split-psca-seed0"] = dict(
    problem="saddle_quartic:d=10", algo="psca", surrogate="quadratic_split", max_iters=300,
    jitter=0.1,
)
CASES["rosenbrock_jitter-quadratic_split-psca-seed0"] = dict(
    problem="rosenbrock:d=10", algo="psca", surrogate="quadratic_split", max_iters=300,
    jitter=0.1,
)
CASES["rosenbrock-quadratic_split-psca-seed0"] = dict(
    problem="rosenbrock:d=10", algo="psca", surrogate="quadratic_split", max_iters=300,
)
CASES["quartic-psca-seed0-eigen100"] = dict(
    problem="saddle_quartic:d=10", algo="psca", max_iters=3000, record_eigen_every=100,
)

GOLDEN = {
    # uniform region-exit tag: the event now carries its message, as for sca and psca
    "indefinite-gd-seed0": "622160ed1ab9dad96363b0c6fddc7a385b1831d825e8bfcb1992d30e836d0db6",
    # uniform region-exit tag: the event now carries its message, as for sca and psca
    "indefinite-gd-seed1": "622160ed1ab9dad96363b0c6fddc7a385b1831d825e8bfcb1992d30e836d0db6",
    # uniform region-exit tag: the event now carries its message, as for sca and psca
    "indefinite-pgd-seed0": "622160ed1ab9dad96363b0c6fddc7a385b1831d825e8bfcb1992d30e836d0db6",
    # uniform region-exit tag: the event now carries its message, as for sca and psca
    "indefinite-pgd-seed1": "622160ed1ab9dad96363b0c6fddc7a385b1831d825e8bfcb1992d30e836d0db6",
    "indefinite-psca-seed0": "622160ed1ab9dad96363b0c6fddc7a385b1831d825e8bfcb1992d30e836d0db6",
    "indefinite-psca-seed1": "622160ed1ab9dad96363b0c6fddc7a385b1831d825e8bfcb1992d30e836d0db6",
    "indefinite-sca-seed0": "622160ed1ab9dad96363b0c6fddc7a385b1831d825e8bfcb1992d30e836d0db6",
    "indefinite-sca-seed1": "622160ed1ab9dad96363b0c6fddc7a385b1831d825e8bfcb1992d30e836d0db6",
    "mf-gd-seed0": "45c81b6e51c43e91d45ef3d3663a72d49940c7c60874e8a013319f517c0885e6",
    "mf-gd-seed1": "45c81b6e51c43e91d45ef3d3663a72d49940c7c60874e8a013319f517c0885e6",
    "mf-pgd-seed0": "91f7d1b9c1ddabc272eff5b6076f4cd43b9011e7fcb2a43f9f64dae1eb7c5dcb",
    "mf-pgd-seed1": "5d1d909ca7f3cfde92d289a3c795b8ee28203d625dab4a61bedd61c8b800292a",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "mf-psca-seed0": "91f7d1b9c1ddabc272eff5b6076f4cd43b9011e7fcb2a43f9f64dae1eb7c5dcb",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "mf-psca-seed1": "5d1d909ca7f3cfde92d289a3c795b8ee28203d625dab4a61bedd61c8b800292a",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "mf-sca-seed0": "45c81b6e51c43e91d45ef3d3663a72d49940c7c60874e8a013319f517c0885e6",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "mf-sca-seed1": "45c81b6e51c43e91d45ef3d3663a72d49940c7c60874e8a013319f517c0885e6",
    "quartic-gd-seed0": "d2074a822a9f1d4e8417c72fcdc8502bbf13acf96e37d85f798059a6054628e8",
    "quartic-gd-seed1": "d2074a822a9f1d4e8417c72fcdc8502bbf13acf96e37d85f798059a6054628e8",
    "quartic-pgd-seed0": "abca739835c17594e06c86308d02ceef50b31c4b028fcad81ec123721097b581",
    "quartic-pgd-seed1": "4e08af561d687fe3ef770d11bf890d421e9deed0d0e97e8d07612c6a2e77b7c2",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "quartic-psca-seed0": "abca739835c17594e06c86308d02ceef50b31c4b028fcad81ec123721097b581",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "quartic-psca-seed0-eigen100": "abca739835c17594e06c86308d02ceef50b31c4b028fcad81ec123721097b581",
    "quartic-psca-seed0-eigen100.eigen": "567c33a1b16cc76e1ed38c67356374e41d8595b8be0b06ec62d0888ecc755520",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "quartic-psca-seed1": "4e08af561d687fe3ef770d11bf890d421e9deed0d0e97e8d07612c6a2e77b7c2",
    "quartic-sca-seed0": "d2074a822a9f1d4e8417c72fcdc8502bbf13acf96e37d85f798059a6054628e8",
    "quartic-sca-seed1": "d2074a822a9f1d4e8417c72fcdc8502bbf13acf96e37d85f798059a6054628e8",
    "quartic_jitter-gd-seed0": "0eaf4b4002f37318a123c3c3ae569d53649b868d712817b856ed77343e9f5f61",
    "quartic_jitter-gd-seed1": "e73d6312761ce7a0e4cafa232c21bb3b7b036e93a0b5ff429390cabf93fa24aa",
    "quartic_jitter-pgd-seed0": "345e63ce16e8aa33c9d2553efa587a301a9eab976edbefa03d2af32697295ec1",
    "quartic_jitter-pgd-seed1": "32e30923ceeee6787d969592dd3134e4b7f6e164b8824a530963c65199d5f4d0",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "quartic_jitter-psca-seed0": "345e63ce16e8aa33c9d2553efa587a301a9eab976edbefa03d2af32697295ec1",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "quartic_jitter-psca-seed1": "32e30923ceeee6787d969592dd3134e4b7f6e164b8824a530963c65199d5f4d0",
    # quadratic_split is minimized in closed form (inner_iters 0, exact minimizer);
    # equal to the former dense_solve=True hash of this case
    "quartic_jitter-quadratic_split-psca-seed0": "e23c2f2ee2b98a4972b2022213f25812d3855b5599076f4005b612940ecdf739",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "quartic_jitter-sca-seed0": "0eaf4b4002f37318a123c3c3ae569d53649b868d712817b856ed77343e9f5f61",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "quartic_jitter-sca-seed1": "e73d6312761ce7a0e4cafa232c21bb3b7b036e93a0b5ff429390cabf93fa24aa",
    # the Hessian is positive definite at every anchor, so each step is a banded Cholesky
    # solve; the eigensolver path wrote f99ea496...: every coordinate within 2.3e-16 relative
    "rosenbrock-quadratic_split-psca-seed0": "deea60a8794752e826abaa7034ff8ebf12a0e779a55cbb1fd6acddd33328ca20",
    "rosenbrock_jitter-gd-seed0": "b74ed1611beed627123d03f4d71e23a1a97984911313550fd8f69c0bf45a957f",
    "rosenbrock_jitter-gd-seed1": "16e377eae25de7e78498512a19f542617fce98d0d52cfc73bde334e3a4f36688",
    "rosenbrock_jitter-pgd-seed0": "b74ed1611beed627123d03f4d71e23a1a97984911313550fd8f69c0bf45a957f",
    "rosenbrock_jitter-pgd-seed1": "da30b201d0496975f9f0eaf458da07dbc3f729bacf595279c498c47a25456305",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "rosenbrock_jitter-psca-seed0": "b74ed1611beed627123d03f4d71e23a1a97984911313550fd8f69c0bf45a957f",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "rosenbrock_jitter-psca-seed1": "da30b201d0496975f9f0eaf458da07dbc3f729bacf595279c498c47a25456305",
    # the tridiagonal Hessian's eigenpairs come from scipy's eigh_tridiagonal; dense eigh
    # wrote 78e099bf...: f and grad_norm equal, step_norm within 3.1e-15 relative
    "rosenbrock_jitter-quadratic_split-psca-seed0": "104041ed2eab8dc3f85df429525743864e53a677486c30d46a091e1dea07560a",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "rosenbrock_jitter-sca-seed0": "b74ed1611beed627123d03f4d71e23a1a97984911313550fd8f69c0bf45a957f",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    "rosenbrock_jitter-sca-seed1": "16e377eae25de7e78498512a19f542617fce98d0d52cfc73bde334e3a4f36688",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_hash(case, tmp_path):
    cfg = cli.ExperimentConfig(out_dir=str(tmp_path), label="run", **CASES[case])
    csv_path, _ = cli.run_experiment(cfg)
    assert _sha256(csv_path) == GOLDEN[case]
    eigen = tmp_path / "run.eigen.csv"
    if cfg.record_eigen_every:
        assert _sha256(eigen) == GOLDEN[case + ".eigen"]
    else:
        assert not eigen.exists()


@pytest.mark.parametrize("flush", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_store_blocks_move_no_byte(case, flush, tmp_path, monkeypatch):
    """The row store's block height (``FLUSH``, 256 in ``test_trajectory_hash``) moves no byte."""
    monkeypatch.setattr(drivers._Rows, "FLUSH", flush)
    test_trajectory_hash(case, tmp_path)


def test_surrogate_runs_equal_their_gradient_twins():
    """The unit-modulus proximal model is the gradient step: sca is gd and psca is pgd."""
    for name in PROBLEMS:
        for seed in (0, 1):
            assert GOLDEN[f"{name}-sca-seed{seed}"] == GOLDEN[f"{name}-gd-seed{seed}"]
            assert GOLDEN[f"{name}-psca-seed{seed}"] == GOLDEN[f"{name}-pgd-seed{seed}"]
    assert GOLDEN["quartic-psca-seed0-eigen100"] == GOLDEN["quartic-psca-seed0"]
