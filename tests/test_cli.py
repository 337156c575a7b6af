"""End-to-end CLI tests driving main(argv) with temporary files."""

import csv
import inspect
import struct
import sys
import threading

import numpy as np
import pytest

from nmsparse import cli, core, estimators, tensorio
from nmsparse.cli import EXIT_IO, EXIT_OK, EXIT_PROPERTY, EXIT_USAGE, build_parser, main
from nmsparse.core import BlockedTensor, SparsityPattern, pattern_violations
from nmsparse.estimators import EstimatorKind, prune_tensor
from nmsparse.rng import RandomStream
from nmsparse.tensorio import (
    DTYPE_FLOAT32,
    FORMAT_VERSION,
    TENSOR_MAGIC,
    compress,
    decompress,
    read_compressed,
    read_tensor,
    write_compressed,
    write_tensor,
)

P24 = SparsityPattern(2, 4)


@pytest.fixture
def dense_file(tmp_path):
    rng = np.random.default_rng(42)
    arr = rng.normal(size=(16, 24)).astype(np.float32).astype(np.float64)
    path = tmp_path / "dense.nmsp"
    write_tensor(path, BlockedTensor.from_array(arr))
    return path, arr


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "prune" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_method_is_usage_error(self, capsys):
        assert main(["verify", "--method", "nope"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_pattern_is_usage_error(self, capsys):
        assert main(["macs", "--pattern", "4:4"]) == EXIT_USAGE
        capsys.readouterr()

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["macs", "--pattern", "2:4"])
        assert args.pattern == P24


class TestPrune:
    def test_greedy_prune_roundtrip(self, dense_file, tmp_path, capsys):
        src, arr = dense_file
        out = tmp_path / "pruned.nmsp"
        rc = main(["prune", str(src), str(out), "--method", "greedy", "--pattern", "2:4"])
        assert rc == EXIT_OK
        assert "method=greedy" in capsys.readouterr().out
        pruned = read_tensor(out)
        assert pattern_violations(pruned, P24) == 0
        result = pruned.as_array()
        kept = result != 0.0
        np.testing.assert_array_equal(result[kept], arr[kept])

    def test_compressed_sidecar(self, dense_file, tmp_path, capsys):
        src, _ = dense_file
        out = tmp_path / "pruned.nmsp"
        comp = tmp_path / "pruned.nmsc"
        rc = main(
            ["prune", str(src), str(out), "--method", "greedy",
             "--pattern", "2:4", "--compressed", str(comp)]
        )
        assert rc == EXIT_OK
        assert "blocked_ratio=0.5625" in capsys.readouterr().out
        restored = decompress(read_compressed(comp))
        np.testing.assert_array_equal(restored.as_array(), read_tensor(out).as_array())

    def test_stochastic_prune_seed_control(self, dense_file, tmp_path):
        src, _ = dense_file
        paths = [tmp_path / name for name in ("a.nmsp", "b.nmsp", "c.nmsp")]
        for path, seed in zip(paths, ("1", "1", "2")):
            rc = main(["prune", str(src), str(path), "--method", "mvue12", "--seed", seed])
            assert rc == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_axis_zero(self, dense_file, tmp_path, capsys):
        src, _ = dense_file
        out = tmp_path / "rows.nmsp"
        rc = main(["prune", str(src), str(out), "--method", "greedy",
                   "--pattern", "2:4", "--axis", "0"])
        assert rc == EXIT_OK
        capsys.readouterr()
        pruned = read_tensor(out)
        pruned = BlockedTensor(pruned.shape, pruned.data, block_axis=0)
        assert pattern_violations(pruned, P24) == 0

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        rc = main(["prune", str(tmp_path / "absent.nmsp"), str(tmp_path / "o.nmsp"),
                   "--method", "greedy", "--pattern", "2:4"])
        assert rc == EXIT_IO
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["dense", "--compressed"])
    def test_output_in_missing_directory_names_the_given_path(self, dense_file, tmp_path,
                                                              capsys, flag):
        missing = str(tmp_path / "absent" / "o.nmsp")
        outputs = [missing] if flag == "dense" else [str(tmp_path / "o.nmsp"), flag, missing]
        rc = main(["prune", str(dense_file[0]), *outputs, "--method", "greedy", "--pattern", "2:4"])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert missing in err and ".tmp" not in err
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("flag", ["dense", "--compressed"])
    def test_output_that_is_a_directory_names_the_given_path(self, dense_file, tmp_path,
                                                             capsys, monkeypatch, flag):
        # A relative path to an existing directory: the message names it as given.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        outputs = ["d"] if flag == "dense" else ["o.nmsp", flag, "d"]
        rc = main(["prune", str(dense_file[0]), *outputs, "--method", "greedy", "--pattern", "2:4"])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert "Is a directory: 'd'" in err and str(tmp_path) not in err

    def test_corrupt_input_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.nmsp"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        rc = main(["prune", str(bad), str(tmp_path / "o.nmsp"),
                   "--method", "greedy", "--pattern", "2:4"])
        assert rc == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_huge_declared_size_is_io_error(self, tmp_path, capsys):
        # The header declares 2^40 float32 elements; the file holds 64 bytes.
        bad = tmp_path / "huge.nmsp"
        header = struct.pack("<4sHHHQ", TENSOR_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, 1, 1 << 40)
        bad.write_bytes(header + b"\x00" * 64)
        rc = main(["prune", str(bad), str(tmp_path / "o.nmsp"),
                   "--method", "greedy", "--pattern", "2:4"])
        assert rc == EXIT_IO
        assert "truncated payload" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mvue24", "approx24", "mvue12"])
    def test_float32_overflow_is_refused(self, tmp_path, capsys, method):
        # Survivors of 3e38 entries are exact in float64 but beyond float32.
        src = tmp_path / "big.nmsp"
        write_tensor(src, BlockedTensor.from_array(np.full((4, 8), 3e38, dtype=np.float32)))
        out, comp = tmp_path / "o.nmsp", tmp_path / "o.nmsc"
        rc = main(["prune", str(src), str(out), "--method", method, "--compressed", str(comp)])
        assert rc == EXIT_USAGE
        assert "refusing to write non-finite data" in capsys.readouterr().err
        assert not out.exists() and not comp.exists()

    @pytest.mark.parametrize("axis", ["2", "-3"])
    def test_out_of_range_axis_is_usage_error(self, dense_file, tmp_path, capsys, axis):
        src, _ = dense_file
        rc = main(["prune", str(src), str(tmp_path / "o.nmsp"), "--method", "greedy",
                   "--pattern", "2:4", "--axis", axis])
        assert rc == EXIT_USAGE
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["greedy", "mvue24"])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_float32_file_matches_float64_reference(self, tmp_path, capsys, method, axis):
        # 258 x 515 holds more than two 16k-block chunks along either axis,
        # with a tail of 3 (axis -1) or 2 (axis 0). The float64 tensor path,
        # cast to float32 at the end, must give the same bytes.
        arr = RandomStream(17).normals((258, 515)).astype(np.float32)
        src = tmp_path / "in.nmsp"
        write_tensor(src, BlockedTensor.from_array(arr))
        out, comp = tmp_path / "o.nmsp", tmp_path / "o.nmsc"
        rc = main(["prune", str(src), str(out), "--method", method, "--pattern", "2:4",
                   "--seed", "5", "--axis", str(axis), "--compressed", str(comp)])
        assert rc == EXIT_OK
        capsys.readouterr()
        wide = BlockedTensor.from_array(arr.astype(np.float64), block_axis=axis)
        kind = EstimatorKind.from_name(method)
        ref = prune_tensor(wide, kind, P24, RandomStream(5)).as_array().astype(np.float32)
        assert out.read_bytes()[-ref.nbytes:] == ref.tobytes()
        write_compressed(tmp_path / "ref.nmsc", compress(BlockedTensor.from_array(ref, axis), P24))
        assert comp.read_bytes() == (tmp_path / "ref.nmsc").read_bytes()

    def test_incompatible_pattern_is_usage_error(self, dense_file, tmp_path, capsys):
        src, _ = dense_file
        rc = main(["prune", str(src), str(tmp_path / "o.nmsp"),
                   "--method", "mvue24", "--pattern", "1:2"])
        assert rc == EXIT_USAGE
        capsys.readouterr()


class TestPruneCompressedOverlap:
    """prune --compressed writes the dense file on one worker thread while it
    compresses; the outputs, exit codes and messages are those of the serial
    order (dense write, compress, compressed write)."""

    @staticmethod
    def prune(src, out, comp, method="greedy"):
        argv = ["prune", str(src), str(out), "--method", method, "--pattern", "2:4"]
        return main(argv + (["--compressed", str(comp)] if comp else []))

    @pytest.mark.parametrize("method", ["greedy", "mvue24"])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_outputs_equal_the_serial_writes(self, tmp_path, capsys, method, axis):
        # 258 rows leave a tail of 2 on axis 0; 516 columns leave none on axis -1.
        src = tmp_path / "in.nmsp"
        write_tensor(src, BlockedTensor.from_array(RandomStream(3).normals((258, 516))))
        out, comp = tmp_path / "o.nmsp", tmp_path / "o.nmsc"
        rc = main(["prune", str(src), str(out), "--method", method, "--pattern", "2:4",
                   "--seed", "9", "--axis", str(axis), "--compressed", str(comp)])
        assert rc == EXIT_OK
        capsys.readouterr()
        tensor = read_tensor(src)
        tensor = BlockedTensor(tensor.shape, tensor.data, axis)
        pruned = prune_tensor(tensor, EstimatorKind.from_name(method), P24, RandomStream(9))
        write_tensor(tmp_path / "ref.nmsp", pruned)
        write_compressed(tmp_path / "ref.nmsc", compress(pruned, P24))
        assert out.read_bytes() == (tmp_path / "ref.nmsp").read_bytes()
        assert comp.read_bytes() == (tmp_path / "ref.nmsc").read_bytes()

    def test_failed_dense_write_writes_no_compressed_file(self, dense_file, tmp_path, capsys):
        missing = tmp_path / "absent" / "o.nmsp"
        comp = tmp_path / "o.nmsc"
        assert self.prune(dense_file[0], missing, comp) == EXIT_IO
        assert str(missing) in capsys.readouterr().err
        assert not comp.exists()
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_dense_write_error_comes_before_the_compress_error(self, dense_file, tmp_path,
                                                              capsys, monkeypatch):
        def failing(t, pattern):
            raise ValueError("compress failed")

        monkeypatch.setattr(tensorio, "compress", failing)
        missing = tmp_path / "absent" / "o.nmsp"
        assert self.prune(dense_file[0], missing, tmp_path / "o.nmsc") == EXIT_IO
        err = capsys.readouterr().err
        assert str(missing) in err and "compress failed" not in err
        # With the dense write done, the compress error is the command's.
        out, comp = tmp_path / "o.nmsp", tmp_path / "o.nmsc"
        assert self.prune(dense_file[0], out, comp) == EXIT_USAGE
        assert "error: compress failed" in capsys.readouterr().err
        assert out.exists() and not comp.exists()

    @pytest.mark.parametrize("compressed", [False, True])
    def test_threads_started(self, dense_file, tmp_path, capsys, monkeypatch, compressed):
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(cli.threading, "Thread", Recording)
        comp = tmp_path / "o.nmsc" if compressed else None
        assert self.prune(dense_file[0], tmp_path / "o.nmsp", comp) == EXIT_OK
        capsys.readouterr()
        assert len(started) == compressed

    @staticmethod
    def wrap_public_functions(monkeypatch, calls):
        """Record the calling thread of every public function of core,
        estimators and tensorio, under each name a library module looks it
        up by (as a tracer would wrap them), and of tensorio._write_tensor."""
        modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "nmsparse"]

        def recording(fn, name):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return wrapper

        for module in (core, estimators, tensorio):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = recording(fn, f"{module.__name__}.{attr}")
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            monkeypatch.setattr(owner, name, wrapper)
        monkeypatch.setattr(tensorio, "_write_tensor",
                            recording(tensorio._write_tensor, "_write_tensor"))

    def test_no_thread_outlives_main_and_public_functions_run_on_main(
            self, dense_file, tmp_path, capsys, monkeypatch):
        calls = []
        self.wrap_public_functions(monkeypatch, calls)
        src, out, comp = dense_file[0], tmp_path / "o.nmsp", tmp_path / "o.nmsc"
        big = tmp_path / "big.nmsp"
        write_tensor(big, BlockedTensor.from_array(np.full((4, 8), 3e38, dtype=np.float32)))

        def failing_compress(t, pattern):
            raise ValueError("compress failed")

        def interrupted(*args):
            raise KeyboardInterrupt

        cases = [  # expected exit, prune arguments, patched tensorio function
            (EXIT_OK, (src, out, comp), None),
            (EXIT_IO, (tmp_path / "absent.nmsp", out, comp), None),
            (EXIT_IO, (src, tmp_path / "absent" / "o.nmsp", comp), None),
            (EXIT_IO, (src, out, tmp_path / "absent" / "o.nmsc"), None),
            (EXIT_USAGE, (big, out, comp, "mvue24"), None),  # both refuse non-finite data
            (EXIT_USAGE, (src, out, comp), ("compress", failing_compress)),
            (KeyboardInterrupt, (src, out, comp), ("compress", interrupted)),
            (KeyboardInterrupt, (src, out, comp), ("_write_tensor", interrupted)),
            (KeyboardInterrupt, (src, out, None), ("write_tensor", interrupted)),
        ]
        before = set(threading.enumerate())
        for expected, args, patch in cases:
            calls.clear()
            with monkeypatch.context() as patched:
                if patch:
                    patched.setattr(tensorio, *patch)
                if expected is KeyboardInterrupt:
                    with pytest.raises(KeyboardInterrupt):
                        self.prune(*args)
                else:
                    assert self.prune(*args) == expected
            capsys.readouterr()
            assert set(threading.enumerate()) == before
            assert calls and all(thread is threading.main_thread()
                                 for name, thread in calls if name != "_write_tensor")
            assert all(thread is not threading.main_thread()
                       for name, thread in calls if name == "_write_tensor")
            if expected == EXIT_OK:
                names = [name for name, _ in calls]
                assert "_write_tensor" in names and "nmsparse.tensorio.write_tensor" not in names
                assert "nmsparse.tensorio.compress" in names


class TestVerify:
    def test_unbiased_method_passes(self, capsys):
        rc = main(["verify", "--method", "mvue12", "--blocks", "20", "--samples", "4000"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        for name in ("pattern", "variance", "unbiased", "frequency"):
            assert f"{name}: PASS" in out

    def test_biased_method_fails_property(self, capsys):
        rc = main(["verify", "--method", "biased", "--blocks", "20", "--samples", "4000"])
        out = capsys.readouterr().out
        assert rc == EXIT_PROPERTY
        assert "unbiased: FAIL" in out

    def test_greedy_runs_min_mse_check(self, capsys):
        rc = main(["verify", "--method", "greedy", "--blocks", "10", "--samples", "200",
                   "--pattern", "2:4"])
        assert rc == EXIT_OK
        assert "min-mse: PASS" in capsys.readouterr().out

    def test_bad_sample_count_is_usage_error(self, capsys):
        assert main(["verify", "--method", "mvue12", "--samples", "1"]) == EXIT_USAGE
        assert "samples" in capsys.readouterr().err


class TestScan:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--step", "0.1", "--out", str(out)])
        assert rc == EXIT_OK
        assert "max ratio" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1000
        ratios = [float(r["ratio"]) for r in rows if r["ratio"]]
        assert max(ratios) < 2.0

    def test_bad_step_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["scan", "--step", "0.5", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "step" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        rc = main(["scan", "--step", "0.1", "--out", str(tmp_path / "no" / "s.csv")])
        assert rc == EXIT_IO
        capsys.readouterr()


class TestMacs:
    def test_reports_expected_density(self, capsys):
        rc = main(["macs", "--pattern", "2:4", "--trials", "20000"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "analytic mean 1.000000" in out

    def test_one_in_two(self, capsys):
        rc = main(["macs", "--pattern", "1:2", "--trials", "20000"])
        assert rc == EXIT_OK
        assert "analytic mean 0.500000" in capsys.readouterr().out

    def test_bad_trials_is_usage_error(self, capsys):
        assert main(["macs", "--pattern", "2:4", "--trials", "0"]) == EXIT_USAGE
        capsys.readouterr()


class TestDemoTrain:
    def run_short(self, tmp_path, capsys, *extra):
        out = tmp_path / "curve.csv"
        rc = main(["demo-train", "--epochs", "2", "--n", "128", "--out", str(out), *extra])
        captured = capsys.readouterr()
        return rc, out, captured.out

    def test_writes_training_curve(self, tmp_path, capsys):
        rc, out, stdout = self.run_short(tmp_path, capsys)
        assert rc == EXIT_OK
        assert "val accuracy" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,loss,val_acc"
        assert len(lines) == 3
        epoch, loss, acc = lines[1].split(",")
        assert epoch == "0"
        assert float(loss) > 0.0
        assert 0.0 <= float(acc) <= 1.0

    def test_gradient_masked_run(self, tmp_path, capsys):
        rc, _, _ = self.run_short(tmp_path, capsys, "--grad-mask", "mvue24")
        assert rc == EXIT_OK

    def test_activation_masked_run(self, tmp_path, capsys):
        rc, _, _ = self.run_short(tmp_path, capsys, "--act-mask", "relu-greedy")
        assert rc == EXIT_OK

    def test_greedy_gradient_mask_rejected(self, tmp_path, capsys):
        rc, _, _ = self.run_short(tmp_path, capsys, "--grad-mask", "greedy")
        assert rc == EXIT_USAGE

    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            rc = main(["demo-train", "--epochs", "2", "--n", "128",
                       "--grad-mask", "mvue12", "--out", str(path)])
            assert rc == EXIT_OK
        capsys.readouterr()
        assert a.read_text() == b.read_text()
