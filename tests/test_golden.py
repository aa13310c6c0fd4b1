"""Golden hashes of trajectory files: a refactor of the drivers must not move a byte.

Each case runs ``run_experiment`` with a small iteration budget and compares
the SHA-256 of the trajectory CSV (and, where recorded, of the eigen sidecar)
with the value recorded for it. The matrix covers every algorithm on an exact
saddle, jittered starts, a run that exhausts its budget, a region exit, a
problem without a dense-Hessian shortcut, the curvature-aware surrogate on a
diagonal Hessian and on tridiagonal ones that are indefinite (eigensolver path)
and positive definite (Cholesky path) at every anchor, and the eigen sidecar. A hash may change
only with a deliberate change of the file format or of a trajectory, named in a
comment next to the new value. ``test_kernel_portability.py`` reruns these cases
under other BLAS kernels and names the ones whose bytes depend on the kernel.
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
    # dots and norms by row_dots, not BLAS; MF's matmul keeps these bits kernel-dependent
    "mf-gd-seed0": "10242759dd170691855d5df238c1b99a4eb3ee87bc3615e7e52fe173cd02ccc5",
    # dots and norms by row_dots, not BLAS; MF's matmul keeps these bits kernel-dependent
    "mf-gd-seed1": "10242759dd170691855d5df238c1b99a4eb3ee87bc3615e7e52fe173cd02ccc5",
    # dots and norms by row_dots, not BLAS; MF's matmul keeps these bits kernel-dependent
    "mf-pgd-seed0": "e278844c5b4cffd44b9aefb990ac55f2c10409b8891631ec0b1be5f3e88518c4",
    # dots and norms by row_dots, not BLAS; MF's matmul keeps these bits kernel-dependent
    "mf-pgd-seed1": "eb14291d116a38d0048ddb64e6d3c8336b3b3ab68a04b60040d4baaed0012f02",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots and norms by row_dots, not BLAS; MF's matmul keeps these bits kernel-dependent
    "mf-psca-seed0": "e278844c5b4cffd44b9aefb990ac55f2c10409b8891631ec0b1be5f3e88518c4",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots and norms by row_dots, not BLAS; MF's matmul keeps these bits kernel-dependent
    "mf-psca-seed1": "eb14291d116a38d0048ddb64e6d3c8336b3b3ab68a04b60040d4baaed0012f02",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots and norms by row_dots, not BLAS; MF's matmul keeps these bits kernel-dependent
    "mf-sca-seed0": "10242759dd170691855d5df238c1b99a4eb3ee87bc3615e7e52fe173cd02ccc5",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots and norms by row_dots, not BLAS; MF's matmul keeps these bits kernel-dependent
    "mf-sca-seed1": "10242759dd170691855d5df238c1b99a4eb3ee87bc3615e7e52fe173cd02ccc5",
    "quartic-gd-seed0": "d2074a822a9f1d4e8417c72fcdc8502bbf13acf96e37d85f798059a6054628e8",
    "quartic-gd-seed1": "d2074a822a9f1d4e8417c72fcdc8502bbf13acf96e37d85f798059a6054628e8",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic-pgd-seed0": "c6faa292195ba5600834368a5898590c803ead3b8d460bf5054a75e78eacd931",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic-pgd-seed1": "a02b07125c0ed93bb9d34c521d384e55769dde05e43d1f4c3399b5603868e194",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic-psca-seed0": "c6faa292195ba5600834368a5898590c803ead3b8d460bf5054a75e78eacd931",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic-psca-seed0-eigen100": "c6faa292195ba5600834368a5898590c803ead3b8d460bf5054a75e78eacd931",
    "quartic-psca-seed0-eigen100.eigen": "567c33a1b16cc76e1ed38c67356374e41d8595b8be0b06ec62d0888ecc755520",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic-psca-seed1": "a02b07125c0ed93bb9d34c521d384e55769dde05e43d1f4c3399b5603868e194",
    "quartic-sca-seed0": "d2074a822a9f1d4e8417c72fcdc8502bbf13acf96e37d85f798059a6054628e8",
    "quartic-sca-seed1": "d2074a822a9f1d4e8417c72fcdc8502bbf13acf96e37d85f798059a6054628e8",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-gd-seed0": "4aa58f49f7c8c49fd0c523c7e87e3506f71bbec85742a37137b2c84ce262764d",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-gd-seed1": "5c5637fa3298a68ab5f011728bbbb584f031fed9b76cedeb092b7dafb92183b7",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-pgd-seed0": "335cfdf8a948f4114dfcf34b5ae2d05801b81a44d0e5ce40db36ec428b7031b7",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-pgd-seed1": "fb8629ccebcec30204c38246c19379b71cff5698cb21cc7fea1c430da9020d2e",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-psca-seed0": "335cfdf8a948f4114dfcf34b5ae2d05801b81a44d0e5ce40db36ec428b7031b7",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-psca-seed1": "fb8629ccebcec30204c38246c19379b71cff5698cb21cc7fea1c430da9020d2e",
    # quadratic_split is minimized in closed form (inner_iters 0, exact minimizer);
    # equal to the former dense_solve=True hash of this case
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-quadratic_split-psca-seed0": "c771ecf8850e9d459a3e6c9dba192806f0c481aa1e5c5285aee7f21671fa7e66",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-sca-seed0": "4aa58f49f7c8c49fd0c523c7e87e3506f71bbec85742a37137b2c84ce262764d",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "quartic_jitter-sca-seed1": "5c5637fa3298a68ab5f011728bbbb584f031fed9b76cedeb092b7dafb92183b7",
    # the Hessian is positive definite at every anchor, so each step is a banded Cholesky
    # solve; the eigensolver path wrote f99ea496...: every coordinate within 2.3e-16 relative
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock-quadratic_split-psca-seed0": "8c023de40386151d3531ea4c0783d193f401cc5dcf35e03b0f5701cf8f70df81",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-gd-seed0": "1534269cf3b1fda43cb2d2a489fdb37f1e56c0cf0473de503981967a585915d6",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-gd-seed1": "c0aba9261d40ffcedb1e5304164d06d3781510695eaf93dad28ed41e52df4b05",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-pgd-seed0": "1534269cf3b1fda43cb2d2a489fdb37f1e56c0cf0473de503981967a585915d6",
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-pgd-seed1": "e39ff32fe842064a0a839b5bef84cf7c4fa16ca25c78667d384a426ea88bdef5",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-psca-seed0": "1534269cf3b1fda43cb2d2a489fdb37f1e56c0cf0473de503981967a585915d6",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-psca-seed1": "e39ff32fe842064a0a839b5bef84cf7c4fa16ca25c78667d384a426ea88bdef5",
    # the tridiagonal Hessian's eigenpairs come from scipy's eigh_tridiagonal; dense eigh
    # wrote 78e099bf...: f and grad_norm equal, step_norm within 3.1e-15 relative
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-quadratic_split-psca-seed0": "d12f911d8680e9e970a9308ea0f5e0aa905d77f98d3c0789be2eae7396104207",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-sca-seed0": "1534269cf3b1fda43cb2d2a489fdb37f1e56c0cf0473de503981967a585915d6",
    # step_norm is the model's ||g||/C, so this run equals its gd/pgd twin byte for byte
    # dots, norms and powers by row_dots and products, not BLAS or pow: kernel-independent
    "rosenbrock_jitter-sca-seed1": "c0aba9261d40ffcedb1e5304164d06d3781510695eaf93dad28ed41e52df4b05",
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
