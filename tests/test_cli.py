import inspect
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nwflow import __version__
from nwflow.cli import EXPERIMENTS, build_parser, main, parse_task
from nwflow.errors import ConfigError, NumericalError, NwflowError
from nwflow.kernels import SupportSet, Vmf, logits
from nwflow.tasks import FourierDensity, Gmm, Moons, Shell


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def experiment_flags(name: str) -> set[str]:
    """The flag dests `experiment <name>` accepts beyond --out and --config, which every command takes,
    --seed, which every experiment takes, and --jobs, which endpoint-check and variance-scaling take."""
    args = build_parser().parse_args(["experiment", name])
    return set(vars(args)) - {"command", "func", "name", "seed", "out", "jobs", "config"}


def test_generate_bytes_independent_of_blas_threads_and_jobs(tmp_path):
    # Fresh processes, because OpenBLAS reads its thread count at import.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    argv = ["generate", "--task", "gmm16d", "--m", "8192", "--n", "512", "--euler", "20"]
    samples = {}
    for threads in ("1", "2"):
        for jobs in ("1", "2"):
            out = tmp_path / f"blas{threads}-jobs{jobs}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            cmd = [sys.executable, "-m", "nwflow.cli", *argv, "--jobs", jobs, "--out", str(out)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            samples[threads, jobs] = read(str(out / "samples.csv"))
    assert len(set(samples.values())) == 1


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI loads no scipy
    # module, and generate and an experiment run with scipy made unimportable.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = (
        "import sys, nwflow, nwflow.cli\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    runs = (
        ["generate", "--task", "gmm2d", "--m", "50", "--n", "64"],
        ["experiment", "endpoint-check", "--n", "200", "--n-seeds", "1"],
    )
    blocked = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from nwflow.cli import main\n"
        f"codes = [main(argv + ['--out', out]) for argv, out in zip({list(runs)!r}, sys.argv[1:])]\n"
        "print(codes)"
    )
    outs = [str(tmp_path / "gen"), str(tmp_path / "exp")]
    proc = subprocess.run([sys.executable, "-c", blocked, *outs], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0]", proc.stdout + proc.stderr
    assert os.path.isfile(os.path.join(outs[0], "samples.csv"))


def test_parse_task_names():
    assert isinstance(parse_task("gmm2d", 0), Gmm)
    assert parse_task("gmm16d", 0).d == 16
    assert isinstance(parse_task("shell8d", 1), Shell)
    assert isinstance(parse_task("fourier8d", 0), FourierDensity)
    assert isinstance(parse_task("moons", 0), Moons)
    assert parse_task(" GMM3 ", 0).d == 3  # case, spaces and the trailing d are optional
    with pytest.raises(ConfigError, match="unknown task 'blob3d'"):
        parse_task("blob3d", 0)
    with pytest.raises(ConfigError, match="unknown task 'moons2d'"):
        parse_task("moons2d", 0)
    with pytest.raises(ConfigError, match="cannot parse dimension from task name 'shell'"):
        parse_task("shell", 0)


def test_generate_writes_files_and_is_deterministic(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    argv = ["generate", "--task", "gmm2d", "--m", "20", "--n", "50", "--seed", "7"]
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2, "--jobs", "4"]) == 0
    for name in ("support.csv", "samples.csv", "meta.json"):
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name))
    meta = json.loads(read(os.path.join(out1, "meta.json")))
    assert meta["seed"] == 7
    assert meta["sigma_min"] == 0.01
    assert meta["integrator"]["n_steps"] == 100
    samples = np.loadtxt(os.path.join(out1, "samples.csv"), delimiter=",")
    assert samples.shape == (50, 2)


def test_generate_meta_json(tmp_path):
    argv = ["generate", "--task", "gmm2d", "--m", "20", "--n", "30", "--seed", "4", "--sigma-min", "0.05"]
    runs = {
        "euler": (["--euler", "7"], {"method": "euler", "n_steps": 7}),
        "rk45": (["--rk45", "--rtol", "1e-4"],
                 {"method": "rk45", "rtol": 1e-4, "atol": 1e-7, "max_steps": 100_000}),
    }
    for name, (flags, integrator) in runs.items():
        out = tmp_path / name
        assert main(argv + flags + ["--out", str(out)]) == 0
        support = SupportSet(np.loadtxt(out / "support.csv", delimiter=","))
        assert json.loads(read(str(out / "meta.json"))) == {
            "command": "generate",
            "library_version": __version__,
            "task": "gmm2d",
            "features": None,
            "m": 20,
            "seed": 4,
            "n": 30,
            "d": 2,
            "integrator": {**integrator, "t_start": 0.0, "t_end": 1.0},
            "base": "isotropic",
            "rng": "default_rng(SeedSequence([seed, sample_index]))",
            "support_sha256": support.sha256(),
            "sigma_min": 0.05,
        }


def test_generate_rejects_bad_m(tmp_path):
    code = main(["generate", "--task", "gmm2d", "--m", "0", "--out", str(tmp_path)])
    assert code == 2


def test_generate_requires_task_or_features(tmp_path):
    assert main(["generate", "--out", str(tmp_path)]) == 2


def test_unknown_experiment_exits_2(tmp_path):
    assert main(["experiment", "not-a-thing", "--out", str(tmp_path)]) == 2


def test_experiment_runs_and_exit_zero(tmp_path, capsys):
    out = str(tmp_path / "fuzz")
    code = main(
        ["experiment", "realization-fuzz", "--configs", "50", "--seed", "1", "--out", out]
    )
    assert code == 0
    payload = json.loads(read(os.path.join(out, "report.json")))
    assert payload["pass"] is True
    assert os.path.exists(os.path.join(out, "rows.csv"))


def test_experiment_reports_are_byte_identical(tmp_path):
    argv = ["experiment", "kde-identity", "--configs", "20", "--seed", "3"]
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(argv + ["--out", out1]) == 0
    assert main(argv + ["--out", out2]) == 0
    assert read(os.path.join(out1, "report.json")) == read(os.path.join(out2, "report.json"))
    assert read(os.path.join(out1, "rows.csv")) == read(os.path.join(out2, "rows.csv"))


def test_diag_neff_profile(tmp_path):
    out = str(tmp_path)
    code = main(
        [
            "diag-neff",
            "--task",
            "gmm2d",
            "--m",
            "30",
            "--n",
            "64",
            "--seed",
            "2",
            "--t-grid",
            "0.2,0.56,1.0",
            "--out",
            out,
        ]
    )
    assert code == 0
    lines = read(os.path.join(out, "neff.csv")).decode().strip().splitlines()
    assert lines[0] == "t,h_t,median_neff,q25,q75"
    assert len(lines) == 4
    assert any(row.startswith("0.56") for row in lines[1:])


def test_diag_neff_single_point_support(tmp_path):
    out = str(tmp_path)
    table = tmp_path / "one.csv"
    table.write_text("0.5,0.5\n")
    code = main(["diag-neff", "--features", str(table), "--m", "1", "--out", out, "--n", "32"])
    assert code == 0
    rows = np.loadtxt(os.path.join(out, "neff.csv"), delimiter=",", skiprows=1)
    assert np.allclose(rows[:, 2], 1.0)


def test_whiten_and_ingest_roundtrip(tmp_path):
    src = tmp_path / "feat.csv"
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(80, 3)) * np.array([3.0, 1.0, 0.2])
    src.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in rows) + "\n")

    wout = str(tmp_path / "w")
    assert main(["whiten", "--features", str(src), "--strength", "1.0", "--out", wout]) == 0
    whitened = np.loadtxt(os.path.join(wout, "whitened.csv"), delimiter=",")
    cov = np.cov(whitened, rowvar=False, ddof=1)
    assert np.max(np.abs(cov - np.eye(3))) < 1e-6
    record = json.loads(read(os.path.join(wout, "transform.json")))
    assert record["strength"] == 1.0
    # a null strength leaves the flag unset, and the library default whitens fully
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strength": None}))
    wnull = str(tmp_path / "wnull")
    assert main(["whiten", "--features", str(src), "--config", str(cfg), "--out", wnull]) == 0
    for name in ("whitened.csv", "transform.json"):
        assert read(os.path.join(wnull, name)) == read(os.path.join(wout, name))

    iout = str(tmp_path / "i")
    assert main(["ingest", "--features", str(src), "--out", iout]) == 0
    meta = json.loads(read(os.path.join(iout, "table_meta.json")))
    assert meta["n"] == 80 and meta["d"] == 3
    assert meta["written_format"] == "bin"
    back = str(tmp_path / "back")
    assert main(["ingest", "--features", os.path.join(iout, "table.bin"), "--out", back]) == 0
    round_rows = np.loadtxt(os.path.join(back, "table.csv"), delimiter=",")
    assert np.allclose(round_rows, rows, atol=0)
    # the format comes from the file's first bytes, not its name
    dat_table, dat = str(tmp_path / "t.dat"), str(tmp_path / "dat")
    shutil.copyfile(os.path.join(iout, "table.bin"), dat_table)
    assert main(["ingest", "--features", dat_table, "--out", dat]) == 0
    assert read(os.path.join(dat, "table.csv")) == read(os.path.join(back, "table.csv"))
    csv_named_bin, wcsv = str(tmp_path / "t.bin"), str(tmp_path / "wcsv")
    shutil.copyfile(src, csv_named_bin)
    assert main(["whiten", "--features", csv_named_bin, "--strength", "1.0", "--out", wcsv]) == 0
    assert sorted(os.listdir(wcsv)) == ["transform.json", "whitened.csv"]
    assert read(os.path.join(wcsv, "whitened.csv")) == read(os.path.join(wout, "whitened.csv"))

    # whiten writes its output in the format of its input
    wbin = str(tmp_path / "wbin")
    assert main(["whiten", "--features", os.path.join(iout, "table.bin"), "--out", wbin]) == 0
    assert sorted(os.listdir(wbin)) == ["transform.json", "whitened.bin"]


def test_whiten_missing_features_is_config_error(tmp_path):
    assert main(["whiten", "--out", str(tmp_path)]) == 2


def test_bad_feature_file_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert main(["generate", "--features", str(bad), "--out", str(tmp_path)]) == 2
    nan = tmp_path / "nan.csv"
    nan.write_text("1,2\nnan,4\n")
    assert main(["generate", "--features", str(nan), "--out", str(tmp_path)]) == 2
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"caf\xe9,b\n1,2\n")
    assert main(["whiten", "--features", str(latin1), "--out", str(tmp_path)]) == 2
    assert "neither an NWF1 table nor UTF-8 text" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "gmm2d", "m": 10, "n": 20, "seed": 5}))
    out = str(tmp_path / "o")
    assert main(["generate", "--config", str(cfg), "--out", out, "--n", "25"]) == 0
    meta = json.loads(read(os.path.join(out, "meta.json")))
    assert meta["n"] == 25  # flag beats config
    assert meta["m"] == 10  # config beats default
    assert meta["seed"] == 5

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no-such-flag": 1}))
    assert main(["generate", "--config", str(bad), "--out", out]) == 2


def test_repeated_main_calls_keep_memory_flat(tmp_path):
    # An argparse parser is a reference cycle that only a full collection frees, so a
    # parser built per call piles up (over 1 MB in these 50 calls); one parser serves all.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strength": 0.5}))
    argv = ["whiten", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == 2  # parsed twice (flags, then the config), then --features is missing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            main(argv)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 100_000


def test_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2 = str(tmp_path / "e1"), str(tmp_path / "e2")
    monkeypatch.setenv("NWFLOW_SEED", "99")
    assert main(["generate", "--task", "gmm2d", "--m", "5", "--n", "10", "--out", out1]) == 0
    monkeypatch.delenv("NWFLOW_SEED")
    assert main(
        ["generate", "--task", "gmm2d", "--m", "5", "--n", "10", "--seed", "99", "--out", out2]
    ) == 0
    assert read(os.path.join(out1, "samples.csv")) == read(os.path.join(out2, "samples.csv"))


def test_generate_rk45_flag(tmp_path):
    out = str(tmp_path)
    code = main(
        [
            "generate",
            "--task",
            "gmm2d",
            "--m",
            "10",
            "--n",
            "20",
            "--seed",
            "1",
            "--rk45",
            "--rtol",
            "1e-4",
            "--atol",
            "1e-6",
            "--out",
            out,
        ]
    )
    assert code == 0
    meta = json.loads(read(os.path.join(out, "meta.json")))
    assert meta["integrator"]["method"] == "rk45"
    assert meta["integrator"]["rtol"] == 1e-4


def test_failed_experiment_exit_code(tmp_path):
    # deliberately wrong reference bandwidth: the endpoint check must fail
    code = main(
        [
            "experiment",
            "endpoint-check",
            "--n",
            "400",
            "--seeds",
            "0,1",
            "--bandwidth-factor",
            "10.0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    payload = json.loads(read(os.path.join(tmp_path, "report.json")))
    assert payload["pass"] is False


def test_infinite_bandwidth_factor_is_config_error(tmp_path, capsys):
    argv = ["experiment", "endpoint-check", "--n", "50", "--seeds", "0", "--bandwidth-factor", "inf"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "bandwidth must be positive and finite" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import nwflow.cli as cli

    def boom(*args, **kwargs):
        raise NumericalError("state diverged")

    monkeypatch.setattr(cli, "generate", boom)
    code = main(["generate", "--task", "gmm2d", "--m", "5", "--n", "10", "--out", str(tmp_path)])
    assert code == 3


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_env_seed_reaches_experiment_seed_lists(tmp_path, monkeypatch):
    argv = ["experiment", "neff-collapse", "--m", "8"]
    out_env, out_flag = str(tmp_path / "env"), str(tmp_path / "flag")
    monkeypatch.setenv("NWFLOW_SEED", "5")
    code_env = main(argv + ["--out", out_env])
    monkeypatch.delenv("NWFLOW_SEED")
    assert main(argv + ["--seed", "5", "--out", out_flag]) == code_env  # a FAIL verdict at m = 8
    out_count = str(tmp_path / "count")
    assert main(argv + ["--seed", "5", "--n-seeds", "8", "--out", out_count]) == code_env
    report = read(os.path.join(out_env, "report.json"))
    assert json.loads(report)["config"]["seeds"] == list(range(5, 13))
    assert report == read(os.path.join(out_flag, "report.json"))
    assert report == read(os.path.join(out_count, "report.json"))


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["generate", "--task", "gmm2d", "--m", "5", "--n", "3", "--seed", "-1"], None,
         "argument --seed: expected a non-negative integer seed, got '-1'"),
        (["diag-neff", "--task", "gmm2d", "--m", "5", "--task-seed", "-4"], None,
         "argument --task-seed: expected a non-negative integer seed, got '-4'"),
        (["experiment", "neff-collapse", "--seeds", "0,-1"], None,
         "argument --seeds: expected a non-negative integer seed, got '-1'"),
        (["experiment", "kde-identity"], "-2", "NWFLOW_SEED: expected a non-negative integer seed, got '-2'"),
    ],
)
def test_negative_seed_names_its_flag(tmp_path, monkeypatch, capsys, argv, env, message):
    if env is not None:
        monkeypatch.setenv("NWFLOW_SEED", env)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_config_file_sets_jobs(tmp_path, monkeypatch):
    import nwflow.cli as cli

    seen = []

    def capture(*args, **kwargs):
        seen.append(kwargs["jobs"])
        raise NumericalError("captured")

    monkeypatch.setattr(cli, "generate", capture)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 1}))
    argv = ["generate", "--task", "gmm2d", "--m", "5", "--n", "10", "--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert main(argv + ["--jobs", "3", "--out", str(tmp_path)]) == 3
    assert seen == [1, 3]  # config beats the default, the flag beats the config


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--task", "gmm2d", "--m", "5", "--n", "10", "--euler", "0"],
        ["generate", "--task", "gmm2d", "--m", "5", "--n", "10", "--rk45", "--rtol", "0"],
        ["experiment", "realization-fuzz", "--configs", "0"],
        ["experiment", "kde-identity", "--configs", "0"],
        ["experiment", "neff-collapse", "--m", "0"],
        ["experiment", "neff-collapse", "--n-seeds", "0"],
        ["diag-neff", "--task", "gmm2d", "--m", "5", "--n", "0"],
        ["generate", "--task", "gmm2d", "--m", "5", "--n", "10", "--jobs", "0"],
        ["experiment", "endpoint-check", "--jobs", "0"],  # --jobs has one type on every command
    ],
)
def test_explicit_zero_is_config_error(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--task", "gmm2d", "--m", "50", "--n", "10", "--rk45", "--rtol", "inf"],
        # finite, but below the rtol floor of 100 machine epsilons
        ["generate", "--task", "gmm2d", "--m", "50", "--n", "10", "--rk45", "--rtol", "1e-300",
         "--atol", "1e-300"],
        ["experiment", "solver-control", "--m", "10", "--n", "40", "--seeds", "0", "--atol", "inf"],
    ],
)
def test_infinite_rk45_tolerance_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err  # rtol or atol
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, config",
    [
        (["generate", "--task", "gmm2d", "--rtol", "1e-4"], None),
        (["generate", "--task", "gmm2d", "--atol", "1e-6"], None),
        (["generate", "--task", "gmm2d", "--rk45", "--euler", "10"], None),
        (["generate", "--task", "gmm2d", "--d", "3"], None),
        (["whiten", "--features", "t.csv", "--task", "gmm2d"], None),
        (["experiment", "kde-identity", "--configs", "1", "--sigma-min", "5", "--task", "bogus"], None),
        (["experiment", "sphere-rate", "--m", "0"], None),
        (["experiment", "kde-identity", "--configs", "1"], {"m": 5}),
        (["experiment", "realization-fuzz", "--configs", "1"], {"n-seeds": 2}),
        (["generate", "--task", "gmm2d"], {"rtol": 1e-4}),
        (["generate", "--task", "gmm2d", "--features", "t.csv"], None),
        (["generate", "--task-seed", "3", "--features", "t.csv"], None),
        (["diag-neff", "--task", "gmm2d", "--features", "t.csv"], None),
        (["generate", "--features", "t.csv", "--format", "csv"], None),
        (["diag-neff", "--features", "t.csv", "--format", "csv"], None),
        (["experiment", "whitening-control", "--features", "t.csv", "--format", "csv"], None),
        (["whiten", "--features", "t.csv"], {"seed": 1}),
        (["whiten", "--features", "t.csv"], {"jobs": 2}),
        (["ingest", "--features", "t.csv"], {"seed": 1}),
        (["ingest", "--features", "t.csv"], {"jobs": 2}),
        (["ingest", "--features", "t.csv"], {"config": "c2.json"}),
        (["experiment", "neff-collapse", "--m", "8", "--seeds", "0"], {"seed": 3}),
    ],
)
def test_unread_flag_exits_2(tmp_path, monkeypatch, argv, config):
    # t.csv exists, so only the unread flag can make a run exit 2.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("".join(f"{i},{i % 7}\n" for i in range(60)))
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["whiten", "--features", "t.csv", "--seed", "1"],
        ["whiten", "--features", "t.csv", "--jobs", "2"],
        ["ingest", "--features", "t.csv", "--seed", "1"],
        ["ingest", "--features", "t.csv", "--jobs", "2"],
        ["diag-neff", "--task", "gmm2d", "--m", "5", "--n", "4", "--jobs", "2"],
        ["experiment", "realization-fuzz", "--configs", "1", "--jobs", "2"],
        ["experiment", "kde-identity", "--configs", "1", "--jobs", "2"],
        ["experiment", "neff-collapse", "--m", "8", "--jobs", "2"],
        ["experiment", "solver-control", "--n-seeds", "1", "--jobs", "2"],
        ["experiment", "sphere-rate", "--n-seeds", "1", "--jobs", "2"],
        ["experiment", "whitening-control", "--n-seeds", "1", "--jobs", "2"],
        ["experiment", "anisotropic-shells", "--n-seeds", "1", "--jobs", "2"],
    ],
)
def test_seed_and_jobs_only_where_read(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("".join(f"{i},{i % 7}\n" for i in range(60)))
    assert main(argv + ["--out", "o"]) == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [["generate", "--features", "t.csv"], ["diag-neff", "--features", "t.csv"], ["whiten", "--features", "t.csv"],
     ["ingest", "--features", "t.csv"], *(["experiment", name] for name in sorted(EXPERIMENTS))],
)
def test_format_is_read_from_the_table_not_a_flag(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("".join(f"{i},{i % 7}\n" for i in range(60)))
    assert main(argv + ["--format", "csv", "--out", "o"]) == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({"format": "csv"}))
    assert main(argv + ["--config", "cfg.json", "--out", "o"]) == 2
    assert "config file keys ['format'] are not recognized flags" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["whiten", "--features", "t.csv"], 0),
        (["ingest", "--features", "t.csv"], 0),
        (["generate", "--task", "gmm2d", "--m", "5", "--n", "4"], 2),
        (["diag-neff", "--task", "gmm2d", "--m", "5", "--n", "4"], 2),
        (["experiment", "neff-collapse", "--m", "8", "--seeds", "0"], 1),  # --seeds: no root seed read
    ],
)
def test_env_seed_read_only_by_commands_with_a_seed(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("".join(f"{i},{i % 7}\n" for i in range(60)))
    monkeypatch.setenv("NWFLOW_SEED", "abc")
    assert main(argv + ["--out", "o"]) == code
    assert ("NWFLOW_SEED" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--task", "gmm2d", "--m", "5", "--n", "4"],
        ["diag-neff", "--task", "gmm2d", "--m", "5", "--n", "4"],
        ["whiten", "--features", "t.csv"],
        ["ingest", "--features", "t.csv"],
        *(["experiment", name] for name in EXPERIMENTS),
    ],
)
def test_each_command_takes_seed_and_jobs_as_it_reads_them(argv):
    # Two experiments keep an unread --jobs while perfbench's command lines for them pass it.
    args = build_parser().parse_args(argv)
    assert ("seed" in args) == (argv[0] in ("generate", "diag-neff", "experiment"))
    takes_jobs = argv[0] == "generate" or argv[-1] in ("endpoint-check", "variance-scaling")
    assert ("jobs" in args) == takes_jobs
    assert args.out == "." and args.config is None


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--task", "gmm2d", "--m", "5", "--n", "8", "--eul", "3"],  # --euler abbreviated
        ["experiment", "neff-collapse", "--n", "1"],  # not --n-seeds: neff-collapse reads no --n
        ["experiment", "neff-collapse", "--m", "8", "--seeds", "0", "--n-seeds", "3"],  # two seed lists
        ["experiment", "--m", "8", "neff-collapse"],  # experiment flags follow the name
        ["experiment", "--seed", "3", "kde-identity", "--configs", "1"],
        ["experiment", "neff-collapse", "--m", "8", "--seed", "3", "--seeds", "0"],  # a root seed beside --seeds
    ],
)
def test_abbreviated_or_misplaced_flag_exits_2(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


def test_experiment_config_keys_follow_the_name(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"configs": 20, "seed": 3}))
    out_cfg, out_flag = str(tmp_path / "cfg"), str(tmp_path / "flag")
    assert main(["experiment", "kde-identity", "--config", str(cfg), "--out", out_cfg]) == 0
    assert main(["experiment", "kde-identity", "--configs", "20", "--seed", "3", "--out", out_flag]) == 0
    assert read(os.path.join(out_cfg, "report.json")) == read(os.path.join(out_flag, "report.json"))


def test_os_and_memory_errors_exit_codes(tmp_path, monkeypatch, capsys):
    import nwflow.cli as cli

    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["generate", "--task", "gmm2d", "--m", "5", "--n", "10"]
    assert main(argv + ["--out", str(blocker / "out")]) == 2
    assert "error:" in capsys.readouterr().err

    def oom(*args, **kwargs):
        raise MemoryError("no room")

    monkeypatch.setattr(cli, "generate", oom)
    assert main(argv + ["--out", str(tmp_path)]) == 3


@pytest.mark.filterwarnings("error")
def test_whiten_one_row_is_size_error(tmp_path, capsys):
    table = tmp_path / "one.csv"
    table.write_text("1.0,2.0\n")
    argv = ["whiten", "--features", str(table), "--ridge", "0.1", "--out", str(tmp_path / "w")]
    assert main(argv) == 2
    assert "at least 2 rows" in capsys.readouterr().err


@pytest.mark.parametrize("strength", ["0", "0.5"])
@pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
def test_whiten_non_finite_or_negative_ridge_exits_2(tmp_path, capsys, strength, ridge):
    table = tmp_path / "t.csv"
    table.write_text("1.0,2.0\n2.0,1.0\n3.0,5.0\n")
    argv = ["whiten", "--features", str(table), "--strength", strength, "--ridge", ridge]
    assert main(argv + ["--out", str(tmp_path / "w")]) == 2
    assert "regularization must be >= 0 and finite" in capsys.readouterr().err
    assert not (tmp_path / "w" / "transform.json").exists()


@pytest.mark.filterwarnings("error")
def test_whiten_fewer_rows_than_rank_is_config_error(tmp_path, capsys):
    table = tmp_path / "wide.csv"
    table.write_text("1,1,1,1,1\n2,1,1,1,1\n1,3,1,1,1\n")  # 3 rows in d = 5, no --ridge
    assert main(["whiten", "--features", str(table), "--out", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "set a ridge" in err


def test_error_classes_alone_decide_exit_codes():
    import nwflow.errors as errors

    defined = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass) if cls.__module__ == errors.__name__
    }
    assert defined == {NwflowError, ConfigError, NumericalError}
    assert (NwflowError.exit_code, ConfigError.exit_code, NumericalError.exit_code) == (3, 2, 3)
    unit = np.eye(3)
    with pytest.raises(ConfigError, match="unit-norm query"):
        logits(2.0 * unit[0], SupportSet(unit), Vmf(3.0))


@pytest.mark.parametrize(
    "config, message",
    [
        ({"m": 5.5}, "argument --m: invalid int value: '5.5'"),
        ({"m": "abc"}, "argument --m: invalid int value: 'abc'"),
        ({"sigma_min": [0.1]}, None),  # a list joins to "0.1", which parses
        ({"format": "csv"}, "keys ['format']"),  # no flag names a table's format
        ({"rk45": "yes"}, "argument --rk45: ignored explicit argument 'yes'"),
        ({"name": "kde-identity"}, "config file keys ['name'] are not recognized flags"),
    ],
)
def test_config_values_get_the_flag_type_check(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = ["generate", "--task", "gmm2d", "--n", "10", "--config", str(path)]
    code = main(argv + ["--out", str(tmp_path / "o")])
    if message is None:
        assert code == 0
    else:
        assert code == 2
        assert message in capsys.readouterr().err


def test_config_lists_switches_and_nulls(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "gmm2d", "m": 10, "n": 12, "rk45": True, "rtol": None}))
    out = tmp_path / "rk"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads(read(str(out / "meta.json")))
    assert meta["integrator"]["method"] == "rk45"
    assert meta["integrator"]["rtol"] == 1e-5  # null leaves the flag unset
    cfg.write_text(json.dumps({"task": "gmm2d", "m": 10, "n": 16, "t_grid": [0.5, 1.0]}))
    assert main(["diag-neff", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    lines = read(str(tmp_path / "d" / "neff.csv")).decode().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1"]


def test_bandwidth_below_float_range_is_numerical_error(tmp_path, capsys):
    # sigma_min^2 = 1e-316 makes t / sigma^2 overflow at t = 1; this wrote NaN and exited 0
    argv = ["diag-neff", "--task", "gmm2d", "--m", "20", "--sigma-min", "1e-158", "--t-grid", "1.0"]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: kernel scale")
    assert not (tmp_path / "neff.csv").exists()


# Every integer flag that an experiment reads, at 0 and -1: each must be a
# configuration error (exit 2), never a traceback or a numerical failure.
_INT_FLAGS = ("configs", "m", "n", "d", "m_ref", "n_seeds")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "name, dest",
    [(name, dest) for name in EXPERIMENTS for dest in _INT_FLAGS if dest in experiment_flags(name)],
)
def test_nonpositive_experiment_int_flag_exits_2(tmp_path, name, dest, value):
    argv = ["experiment", name, "--" + dest.replace("_", "-"), value]
    assert main(argv + ["--out", str(tmp_path)]) == 2


def test_huge_n_seeds_exits_2(tmp_path, capsys):
    # range() of this many seeds cannot become a list: an OverflowError, which exited 1
    argv = ["experiment", "endpoint-check", "--n-seeds", str(10**20)]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_nan_t_grid_exits_2(tmp_path, capsys):
    argv = ["diag-neff", "--task", "gmm2d", "--m", "5", "--t-grid", "0.5,nan"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "t grid must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bandwidth, code, message",
    [
        ("inf", 2, "positive and finite"),
        ("1e200", 3, "Euler MMD^2 is exactly 0"),  # the kernel is constant
        ("1e-200", 3, "kernel scale 1 / (2 bandwidth^2) overflows"),
    ],
)
def test_extreme_mmd_bandwidth_keeps_exit_codes(tmp_path, capsys, bandwidth, code, message):
    argv = ["experiment", "solver-control", "--m", "10", "--n", "40", "--seeds", "0"]
    assert main(argv + ["--mmd-bandwidth", bandwidth, "--out", str(tmp_path)]) == code
    assert message in capsys.readouterr().err


def test_degenerate_endpoint_kernel_is_numerical_error(tmp_path, capsys):
    # At bandwidth 1e200 the kernel is constant: every MMD^2 and the null IQR
    # are exactly 0, and the band |mmd2 - median| <= 3 IQR held vacuously.
    argv = ["experiment", "endpoint-check", "--n", "200", "--n-seeds", "1", "--mmd-bandwidth", "1e200"]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert "null MMD^2 IQR is exactly 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solver-control", "--m", "10", "--n", "200", "--seeds", "0"], "Euler MMD^2 is exactly 0"),
        (["endpoint-check", "--n", "200", "--n-seeds", "1"], "null MMD^2 IQR is exactly 0"),
    ],
)
def test_vanishing_mmd_kernel_is_numerical_error(tmp_path, capsys, argv, message):
    # At bandwidth 1e-8 every pair's kernel value is 0, so is every MMD^2, and a verdict
    # would compare nothing.
    assert main(["experiment", *argv, "--mmd-bandwidth", "1e-8", "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_whitening_control_holds_out_what_a_small_table_has(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((200, 3)) @ np.diag([3.0, 1.0, 0.2])
    table = tmp_path / "t.csv"
    table.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    argv = ["experiment", "whitening-control", "--features", str(table), "--m", "30", "--n-seeds", "1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) in (0, 1)
    report = json.loads(read(str(tmp_path / "out" / "report.json")))
    assert report["config"]["n_eval"] == 170
    assert report["config"]["table"]["n"] == 200
