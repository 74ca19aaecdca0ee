"""predict splits its CSV text, sweep its grid cells and load_csv a large
file's rows over forked worker processes (`pgbm._shares`): the bytes
written and the matrix read do not depend on the number of workers, a
failure in any process is one `error:` line or the one-process result,
and no process or temporary file outlives the command."""

from __future__ import annotations

import errno
import io
import itertools
import os
import tempfile
import time

import pytest

from pgbm import _reprs, _shares, cli, data, dist, errors, metrics
from pgbm.cli import main

from conftest import load_outcome, make_regression, use_workers

N_ROWS = 80
BLOCK_ROWS = 7  # 80 rows: eleven full blocks and a partial one
N_BLOCKS = 12


def write_csv(path, table):
    lines = [",".join(table.feature_names + ["y"])]
    for x, y in zip(table.features.tolist(), table.target.tolist()):
        lines.append(",".join(map(repr, [*x, y])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("shares")
    train_csv = write_csv(root / "train.csv", make_regression(60, 300, 2))
    test_csv = write_csv(root / "test.csv", make_regression(61, N_ROWS, 2))
    model = root / "model.txt"
    argv = ["train", "--data", str(train_csv), "--target", "y", "--model-out", str(model),
            "--n-estimators", "30", "--max-leaves", "8", "--seed", "4"]
    assert main(argv) == 0
    return {"test_csv": test_csv, "model": model}


@pytest.fixture
def fork_log(monkeypatch, tmp_path):
    """Records the pid of every child forked, by its caller, told apart by
    the name of the work it shares: "read" for `load_csv`'s, "write" for
    predict's writer and "sweep" for sweep's cells. Checks that each
    worker's temporary file is made where its caller puts it: the
    writer's in the test's output directory, those of `load_csv` and
    sweep in the system's temporary directory, which goes to a directory
    of the test's own and must stay empty."""
    log: dict[str, list[int]] = {"read": [], "write": [], "sweep": []}
    callers: list[str] = []
    fork = os.fork
    temporary_file = tempfile.TemporaryFile
    write = _shares.write
    caller = {"read_run": "read", "write_blocks": "write", "score_share": "sweep"}

    def tagged_write(out, shares, work, tmpdir):
        callers.append(caller[work.__name__])
        try:
            return write(out, shares, work, tmpdir)
        finally:
            callers.pop()

    def recording_fork():
        pid = fork()
        if pid:
            log[callers[-1]].append(pid)
        return pid

    def where_the_caller_puts_it(*args, dir=None, **kwargs):
        assert dir == (str(tmp_path) if callers[-1] == "write" else tempfile.gettempdir())
        return temporary_file(*args, dir=dir, **kwargs)

    monkeypatch.setattr(_shares, "write", tagged_write)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(tempfile, "TemporaryFile", where_the_caller_puts_it)
    system_temp = tmp_path.parent / f"{tmp_path.name}-system-temp"
    system_temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(system_temp))
    yield log
    assert list(system_temp.iterdir()) == []


@pytest.fixture
def forks(fork_log, monkeypatch):
    """The pids of the children that predict's writer forks (see
    `fork_log`), which splits the test file into `N_BLOCKS` blocks."""
    monkeypatch.setattr(dist, "_BLOCK_ROWS", BLOCK_ROWS)
    return fork_log["write"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(argv, capsys, out):
    code = main(argv)
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    return code, captured.out.replace(str(out), "OUT"), captured.err.replace(str(out), "OUT"), written


def predict_argv(files, out, *extra):
    return ["predict", "--model", str(files["model"]), "--data", str(files["test_csv"]),
            "--out", str(out), "--seed", "3", *extra]


def names(directory):
    return sorted(p.name for p in directory.iterdir())


def sweep_argv(files, *extra):
    return ["sweep", "--model", str(files["model"]), "--data", str(files["test_csv"]),
            "--target", "y", "--n-samples", "5", "--seed", "2", *extra]


# A grid of nine cells in which every negative binomial and lognormal cell
# has rows that fall back to normal.
GRID = ["--dists", "normal,negativebinomial,lognormal", "--rhos", "0.0,0.3,0.6"]
N_CELLS = 9


class TestSameBytes:
    @pytest.mark.parametrize(
        "extra",
        [["--n-samples", "6"], ["--point-only"], ["--n-samples", "6", "--clamp-nonneg"]],
        ids=["samples", "point_only", "clamp_nonneg"],
    )
    def test_predict(self, files, fork_log, forks, monkeypatch, tmp_path, capsys, extra):
        outcomes = {}
        for n in (1, 2, 3, N_BLOCKS + 8):
            use_workers(monkeypatch, n)
            forks.clear()
            fork_log["read"].clear()
            out = tmp_path / f"pred{n}.csv"
            outcomes[n] = run(predict_argv(files, out, *extra), capsys, out)
            assert len(forks) == min(n, N_BLOCKS) - 1
            assert len(fork_log["read"]) == n - 1  # the test file's rows
            assert_no_child_left()
        assert outcomes[1][0] == 0 and outcomes[1][1] == f"wrote OUT ({N_ROWS} rows)\n"
        assert len(outcomes[1][3].splitlines()) == N_ROWS + 1
        for n, outcome in outcomes.items():
            assert outcome == outcomes[1], n
        assert names(tmp_path) == sorted(f"pred{n}.csv" for n in outcomes)

    def test_few_values_stay_in_one_process(self, files, forks, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        out = tmp_path / "pred.csv"
        assert main(predict_argv(files, out, "--n-samples", "6")) == 0
        assert forks == []

    def test_sweep(self, files, fork_log, monkeypatch, tmp_path, capsys):
        """Nine cells, whose negative binomial and lognormal cells fall back
        to normal, in 1, 2, 3 and 4 shares (never fewer than two cells
        each): the same exit code, stdout, stderr (warnings in grid order)
        and `--out` bytes."""
        outcomes = {}
        for n in (1, 2, 3, N_CELLS + 8):
            use_workers(monkeypatch, n)
            for pids in fork_log.values():
                pids.clear()
            out = tmp_path / f"grid{n}.csv"
            outcomes[n] = run(sweep_argv(files, *GRID, "--out", str(out)), capsys, out)
            assert len(fork_log["sweep"]) == min(n, N_CELLS // 2) - 1
            assert len(fork_log["read"]) == n - 1  # the test file's rows
            assert fork_log["write"] == []
            assert_no_child_left()
        code, stdout, stderr, written = outcomes[1]
        assert code == 0 and stdout.startswith(written.decode())
        assert len(written.splitlines()) == 1 + N_CELLS
        assert [line.split(" for ")[1] for line in stderr.splitlines()] == [
            f"{family} at rho {rho} and fell back to normal"
            for family in ("negativebinomial", "lognormal") for rho in ("0.0", "0.3", "0.6")
        ]
        for n, outcome in outcomes.items():
            assert outcome == outcomes[1], n
        assert names(tmp_path) == sorted(f"grid{n}.csv" for n in outcomes)

    @pytest.mark.parametrize("dists", ["normal,laplace", "normal,laplace,lognormal"])
    def test_fewer_than_two_pairs_of_cells_stay_in_one_process(
        self, files, fork_log, monkeypatch, capsys, dists
    ):
        use_workers(monkeypatch, 4)
        assert main(sweep_argv(files, "--dists", dists, "--rhos", "0.3")) == 0
        assert fork_log["sweep"] == []


class TestForkFails:
    """Where no worker can be forked (EAGAIN: a process or memory limit),
    or no temporary file made, the shares left run in the calling
    process, with the same bytes."""

    def one_process_bytes(self, files, monkeypatch, tmp_path, capsys):
        use_workers(monkeypatch, 1)
        out = tmp_path / "one.csv"
        outcome = run(predict_argv(files, out, "--n-samples", "6"), capsys, out)
        out.unlink()
        return outcome

    @pytest.mark.parametrize("forks_before_failing", [0, 1])
    def test_fork_fails(self, files, forks, monkeypatch, tmp_path, capsys, forks_before_failing):
        expected = self.one_process_bytes(files, monkeypatch, tmp_path, capsys)
        fork = os.fork

        def failing_fork():
            if len(forks) == forks_before_failing:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        use_workers(monkeypatch, 4)
        out = tmp_path / "pred.csv"
        assert run(predict_argv(files, out, "--n-samples", "6"), capsys, out) == expected
        assert len(forks) == forks_before_failing
        assert_no_child_left()
        assert names(tmp_path) == ["pred.csv"]

    def test_temporary_file_fails(self, files, forks, monkeypatch, tmp_path, capsys):
        expected = self.one_process_bytes(files, monkeypatch, tmp_path, capsys)

        def no_room(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(tempfile, "TemporaryFile", no_room)
        use_workers(monkeypatch, 4)
        out = tmp_path / "pred.csv"
        assert run(predict_argv(files, out, "--n-samples", "6"), capsys, out) == expected
        assert forks == []


class TestSweepForkFails:
    """Where a worker of sweep cannot be forked or given a temporary
    file, its cells and the later shares' are scored in the calling
    process, with the same bytes."""

    def one_process_outcome(self, files, monkeypatch, capsys, tmp_path):
        use_workers(monkeypatch, 1)
        out = tmp_path / "one.csv"
        outcome = run(sweep_argv(files, *GRID, "--out", str(out)), capsys, out)
        out.unlink()
        return outcome

    @pytest.mark.parametrize("forks_before_failing", [0, 1])
    def test_fork_fails(self, files, fork_log, monkeypatch, tmp_path, capsys, forks_before_failing):
        expected = self.one_process_outcome(files, monkeypatch, capsys, tmp_path)
        fork = os.fork

        def failing_fork():
            if len(fork_log["sweep"]) == forks_before_failing:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        use_workers(monkeypatch, 3)
        out = tmp_path / "grid.csv"
        assert run(sweep_argv(files, *GRID, "--out", str(out)), capsys, out) == expected
        assert len(fork_log["sweep"]) == forks_before_failing
        assert_no_child_left()
        assert names(tmp_path) == ["grid.csv"]

    def test_temporary_file_fails(self, files, fork_log, monkeypatch, tmp_path, capsys):
        expected = self.one_process_outcome(files, monkeypatch, capsys, tmp_path)

        def no_room(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(tempfile, "TemporaryFile", no_room)
        use_workers(monkeypatch, 3)
        out = tmp_path / "grid.csv"
        assert run(sweep_argv(files, *GRID, "--out", str(out)), capsys, out) == expected
        assert fork_log["sweep"] == []


def raising(make, where):
    """A stand-in that raises ``make()`` in the processes ``where`` picks
    (given whether it is the parent) and otherwise calls ``real``."""
    parent = os.getpid()

    def wrap(real):
        def run(*args, **kwargs):
            if where(os.getpid() == parent):
                raise make()
            return real(*args, **kwargs)

        return run

    return wrap


ERRORS = {
    "usage": (lambda: ValueError("block refused"), 2),
    # Its __init__ takes three arguments, so pickle cannot rebuild it from
    # its message; it reaches the command as its own class all the same.
    "unpicklable": (lambda: errors.InfeasibleMoments("normal", 1.0, -1.0), 3),
    "data": (lambda: errors.NonFiniteValue(3, 1), 3),
    "os": (lambda: OSError(errno.EIO, os.strerror(errno.EIO)), 3),
}


class FullDisk:
    """A temporary file, made in the calling process, on which every write
    in a forked child fails as on a full disk."""

    def __init__(self, file):
        self.file = file
        self.parent = os.getpid()

    def write(self, b):
        if os.getpid() != self.parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.file.write(b)

    def __getattr__(self, name):
        return getattr(self.file, name)


class TestFailures:
    """A share that fails only in its worker is written by the calling
    process, in its place: predict succeeds with one process's bytes. A
    block that fails in every process fails as in one process."""

    def assert_same_failure(self, one, many, code):
        assert one == many
        assert one[0] == code
        assert one[2].startswith("error:") and len(one[2].splitlines()) == 1, one[2]
        assert "Traceback" not in one[2]

    def assert_worker_share_done_here(
        self, files, forks, monkeypatch, tmp_path, capsys, fault, after_chunks=0
    ):
        """Predict with two workers, whose worker meets ``fault`` when it
        has written ``after_chunks`` chunks of its first block, gives one
        process's outcome: the calling process formats all twelve blocks,
        and no file or process is left."""
        out = tmp_path / "pred.csv"
        argv = predict_argv(files, out, "--n-samples", "6")
        use_workers(monkeypatch, 1)
        expected = run(argv, capsys, out)
        assert expected[0] == 0 and expected[2] == ""
        parent = os.getpid()
        rows, chunk = _reprs.Writer.rows, _reprs.Writer._chunk
        blocks_here = []
        chunks_there = []

        def counted_rows(writer, start, matrix):
            if os.getpid() == parent:
                blocks_here.append(start)
            return rows(writer, start, matrix)

        def faulty_chunk(writer, *args):
            if os.getpid() != parent:
                if len(chunks_there) == after_chunks:
                    fault()
                chunks_there.append(args)
            return chunk(writer, *args)

        monkeypatch.setattr(_reprs.Writer, "rows", counted_rows)
        monkeypatch.setattr(_reprs.Writer, "_chunk", faulty_chunk)
        use_workers(monkeypatch, 2)
        assert run(argv, capsys, out) == expected
        assert len(blocks_here) == N_BLOCKS
        assert len(forks) == 1
        assert_no_child_left()
        assert names(tmp_path) == ["pred.csv"]

    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_share_raises_in_a_child(self, files, forks, monkeypatch, tmp_path, capsys, case):
        make, _ = ERRORS[case]

        def fault():
            raise make()

        self.assert_worker_share_done_here(files, forks, monkeypatch, tmp_path, capsys, fault)

    def test_child_write_fails(self, files, forks, monkeypatch, tmp_path, capsys):
        """A worker whose temporary file hits a full disk costs its share's
        formatting here, not the command."""
        temporary_file = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda **kw: FullDisk(temporary_file(**kw)))
        self.assert_worker_share_done_here(
            files, forks, monkeypatch, tmp_path, capsys, lambda: None
        )

    def test_child_killed(self, files, forks, monkeypatch, tmp_path, capsys):
        """A worker that dies (as under the OOM killer) costs its share's
        formatting here, not the command."""
        import signal

        self.assert_worker_share_done_here(
            files, forks, monkeypatch, tmp_path, capsys,
            lambda: os.kill(os.getpid(), signal.SIGKILL),
        )

    @pytest.mark.parametrize("kill", [False, True], ids=["raises", "killed"])
    def test_fault_after_part_of_a_block(self, files, forks, monkeypatch, tmp_path, capsys, kill):
        """A worker that has written two of the four chunks of its first
        block and then raises or dies leaves none of its bytes in the file:
        the calling process writes that share whole."""
        import signal

        monkeypatch.setattr(_reprs, "_CHUNK_VALUES", 20)  # two rows of nine cells

        def fault():
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ERRORS["usage"][0]()

        self.assert_worker_share_done_here(
            files, forks, monkeypatch, tmp_path, capsys, fault, after_chunks=2
        )

    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_a_block_raises_in_every_process(
        self, files, forks, monkeypatch, tmp_path, capsys, case
    ):
        """Block 8 of 12, in the worker's share (blocks 6-11), fails in the
        worker and again here: one process's exit code, error line and
        file, which holds blocks 0-7."""
        make, code = ERRORS[case]
        rows = _reprs.Writer.rows

        def failing_rows(writer, start, matrix):
            if start == 8 * BLOCK_ROWS:
                raise make()
            return rows(writer, start, matrix)

        monkeypatch.setattr(_reprs.Writer, "rows", failing_rows)
        out = tmp_path / "pred.csv"
        outcomes = []
        for n in (1, 2):
            use_workers(monkeypatch, n)
            outcomes.append(run(predict_argv(files, out, "--n-samples", "4"), capsys, out))
        one, many = outcomes
        self.assert_same_failure(one[:3], many[:3], code)
        assert one[3] == many[3]
        assert len(one[3].splitlines()) == 1 + 8 * BLOCK_ROWS
        assert len(forks) == 1
        assert_no_child_left()
        assert names(tmp_path) == ["pred.csv"]

    def test_parent_write_fails_while_children_run(self, files, forks, monkeypatch, tmp_path, capsys):
        class FullDisk(io.FileIO):
            """Takes the header line, then fails as a full disk would."""

            def write(self, b):
                if self.tell():
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(b)

        def opening(path, mode="r", **kwargs):
            return FullDisk(path, "w") if mode == "wb" else open(path, mode, **kwargs)

        monkeypatch.setattr(data, "open", opening, raising=False)
        out = tmp_path / "pred.csv"
        outcomes = []
        for n in (1, 2):
            use_workers(monkeypatch, n)
            outcomes.append(run(predict_argv(files, out, "--n-samples", "6"), capsys, out))
        one, many = outcomes
        self.assert_same_failure(one, many, 3)
        assert one[2] == "error: cannot write OUT: [Errno 28] No space left on device\n"
        assert len(forks) == 1
        assert_no_child_left()
        assert names(tmp_path) == ["pred.csv"]

    @pytest.mark.parametrize("interrupt", [False, True], ids=["error", "interrupt"])
    def test_parent_failure_kills_running_children(
        self, files, forks, monkeypatch, tmp_path, capsys, interrupt
    ):
        def sleeping(real):
            def run(*args, **kwargs):
                time.sleep(60)
                return real(*args, **kwargs)

            return run

        parent = os.getpid()
        failing = raising(KeyboardInterrupt if interrupt else ERRORS["usage"][0],
                          lambda is_parent: is_parent)(sleeping(_reprs.Writer.rows))
        monkeypatch.setattr(_reprs.Writer, "rows", failing)
        use_workers(monkeypatch, 3)
        out = tmp_path / "pred.csv"
        argv = predict_argv(files, out, "--n-samples", "6")
        start = time.perf_counter()
        if interrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: block refused\n"
        assert time.perf_counter() - start < 30
        assert os.getpid() == parent and len(forks) == 2
        assert_no_child_left()
        assert names(tmp_path) == ["pred.csv"]


class TestSweepFailures:
    """A sweep worker that fails costs a scoring of its cells here; where
    a cell fails here too, the whole grid is scored again in one process,
    whose warnings, error line and exit code are the command's."""

    # With two shares the laplace cell is the child's second cell, after
    # the negative binomial one; both that and the lognormal cell warn.
    CELLS = ["--dists", "normal,negativebinomial,lognormal,laplace", "--rhos", "0.3"]

    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_a_cell_raises_in_a_child(self, files, fork_log, monkeypatch, tmp_path, capsys, case):
        make, code = ERRORS[case]
        parent = os.getpid()
        sample_blocks = cli.sample_blocks
        scored_here = []

        def failing_sample_blocks(moments, spec, *args):
            if os.getpid() == parent:
                scored_here.append(spec.family)
            if spec.family == "laplace":
                raise make()
            return sample_blocks(moments, spec, *args)

        monkeypatch.setattr(cli, "sample_blocks", failing_sample_blocks)
        outcomes, scored = [], []
        for n in (1, 2):
            use_workers(monkeypatch, n)
            scored_here.clear()
            out = tmp_path / "grid.csv"
            outcomes.append(run(sweep_argv(files, *self.CELLS, "--out", str(out)), capsys, out))
            scored.append(scored_here.copy())
        one, many = outcomes
        assert one == many
        assert one[0] == code and one[1] == "" and one[3] is None
        *warnings, error = one[2].splitlines()
        assert [w.split(" for ")[1] for w in warnings] == [
            f"{family} at rho 0.3 and fell back to normal"
            for family in ("negativebinomial", "lognormal")
        ]
        assert error.startswith("error:") and "Traceback" not in one[2]
        # One process scores the grid once, up to the failing cell; with
        # two shares, share 0 is scored here, then the worker's share up to
        # that cell, then the grid again up to it.
        grid = self.CELLS[1].split(",")
        assert scored == [grid, ["normal", "lognormal", "negativebinomial", "laplace", *grid]]
        assert len(fork_log["sweep"]) == 1
        assert_no_child_left()
        assert names(tmp_path) == []

    @pytest.mark.parametrize("failure", ["raises", "killed"])
    def test_a_failed_share_is_scored_again_in_one_process(
        self, files, fork_log, monkeypatch, tmp_path, capsys, failure
    ):
        import signal

        use_workers(monkeypatch, 1)
        out = tmp_path / "grid.csv"
        expected = run(sweep_argv(files, *self.CELLS, "--out", str(out)), capsys, out)
        assert expected[0] == 0
        parent = os.getpid()
        crps = metrics.crps_empirical_rows

        def failing_crps(*args):
            if os.getpid() != parent:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError
            return crps(*args)

        monkeypatch.setattr(metrics, "crps_empirical_rows", failing_crps)
        use_workers(monkeypatch, 2)
        assert run(sweep_argv(files, *self.CELLS, "--out", str(out)), capsys, out) == expected
        assert len(fork_log["sweep"]) == 1
        assert_no_child_left()
        assert names(tmp_path) == ["grid.csv"]

    def test_an_interrupt_kills_the_workers_and_is_not_scored_again(
        self, files, fork_log, monkeypatch, capsys
    ):
        parent = os.getpid()
        sample_blocks = cli.sample_blocks
        scored_here = []

        def interrupted_sample_blocks(*args):
            if os.getpid() == parent:
                scored_here.append(args[1].family)
                raise KeyboardInterrupt
            time.sleep(60)
            return sample_blocks(*args)

        monkeypatch.setattr(cli, "sample_blocks", interrupted_sample_blocks)
        use_workers(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            main(sweep_argv(files, *GRID))
        assert time.perf_counter() - start < 30
        assert os.getpid() == parent and len(fork_log["sweep"]) == 2
        assert scored_here == ["normal"]
        assert_no_child_left()


READ_ROWS = 12
# With two or three workers the last share holds row 11, the last one.
GOOD_ROWS = "".join(f"{i},{i / 7!r},{-i}\n" for i in range(READ_ROWS - 1))


def read_outcome(path):
    return load_outcome(data.load_csv, path, "y")


def one_process_outcome(monkeypatch, path):
    use_workers(monkeypatch, 1)
    return read_outcome(path)


class TestLoadCsv:
    """load_csv reads a plain file in row shares, with the matrix and the
    errors of one process."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "last_row, error, forked",
        [
            (b"1,2,oops", (errors.ParseError, READ_ROWS - 1, 2), True),
            (b"1,2", (errors.ParseError, READ_ROWS - 1, 2), True),
            (b"1,nan,3", (errors.NonFiniteValue, READ_ROWS - 1, 1), True),
            (b"1,2,\xff3", (errors.IoError, None, None), False),  # not plain
        ],
        ids=["bad_cell", "wrong_width", "nan", "not_utf8"],
    )
    def test_the_last_share_holds_a_bad_row(
        self, fork_log, monkeypatch, tmp_path, workers, last_row, error, forked
    ):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b,y\n" + GOOD_ROWS.encode() + last_row + b"\n")
        expected = one_process_outcome(monkeypatch, path)
        assert (expected[0], *expected[2:]) == error
        use_workers(monkeypatch, workers)
        assert read_outcome(path) == expected
        assert len(fork_log["read"]) == (workers - 1 if forked else 0)
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3, READ_ROWS + 5])
    def test_same_matrix(self, fork_log, monkeypatch, tmp_path, workers):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n" + GOOD_ROWS + "0.5,1e-300,7", encoding="utf-8")
        expected = one_process_outcome(monkeypatch, path)
        parent = os.getpid()
        read_rows = data._read_rows
        reads_here = []

        def counted_read_rows(*args, **kwargs):
            if os.getpid() == parent:
                reads_here.append(args)
            return read_rows(*args, **kwargs)

        monkeypatch.setattr(data, "_read_rows", counted_read_rows)
        use_workers(monkeypatch, workers)
        assert read_outcome(path) == expected
        assert len(fork_log["read"]) == min(workers, READ_ROWS) - 1
        assert len(reads_here) == 1  # the first share's rows, and no second read
        assert_no_child_left()

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("quote.csv", b'a,b,y\n' + GOOD_ROWS.encode() + b'"1",2,3\n'),
            ("crlf.csv", (b"a,b,y\n" + GOOD_ROWS.encode()).replace(b"\n", b"\r\n")),
            ("cr.csv", b"a,b,y\n" + GOOD_ROWS.encode() + b"1,2,3\r4,5,6\n"),
            ("empty_line.csv", b"a,b,y\n" + GOOD_ROWS.encode().replace(b"\n", b"\n\n", 1)),
            ("empty_last_line.csv", b"a,b,y\n" + GOOD_ROWS.encode() + b"\n"),
            ("header_lines.csv", b'a,"b\nc",y\n' + GOOD_ROWS.encode()),
            ("not_ascii.csv", b"a,b,y\n" + GOOD_ROWS.encode() + "1,2,\u0663\n".encode()),
            ("packed.csv.gz", b"a,b,y\n" + GOOD_ROWS.encode()),
        ],
    )
    @pytest.mark.parametrize("scan_bytes", [None, 2], ids=["scan", "tiny_scan"])
    def test_a_file_that_is_not_plain_forks_nothing(
        self, fork_log, monkeypatch, tmp_path, name, raw, scan_bytes
    ):
        """Also when the file is scanned two bytes at a time, so that the
        empty line starts a chunk."""
        path = tmp_path / name
        path.write_bytes(raw)
        expected = one_process_outcome(monkeypatch, path)
        if scan_bytes:
            monkeypatch.setattr(data, "_SCAN_BYTES", scan_bytes)
        use_workers(monkeypatch, 3)
        assert read_outcome(path) == expected
        assert fork_log["read"] == []

    @pytest.mark.parametrize("forks_before_failing", [0, 1])
    def test_fork_fails(self, fork_log, monkeypatch, tmp_path, forks_before_failing):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n" + GOOD_ROWS, encoding="utf-8")
        expected = one_process_outcome(monkeypatch, path)
        fork = os.fork

        def failing_fork():
            if len(fork_log["read"]) == forks_before_failing:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        use_workers(monkeypatch, 3)
        assert read_outcome(path) == expected
        assert len(fork_log["read"]) == forks_before_failing
        assert_no_child_left()

    def test_temporary_file_fails(self, fork_log, monkeypatch, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n" + GOOD_ROWS, encoding="utf-8")
        expected = one_process_outcome(monkeypatch, path)

        def no_room(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(tempfile, "TemporaryFile", no_room)
        use_workers(monkeypatch, 3)
        assert read_outcome(path) == expected
        assert fork_log["read"] == []

    @pytest.mark.parametrize("failure", ["raises", "killed", "undercounted", "overcounted"])
    def test_a_failed_share_is_read_again_in_one_process(
        self, fork_log, monkeypatch, tmp_path, failure
    ):
        """A worker that raises, dies or reads other than its own rows
        costs a second read, not a different result."""
        import signal

        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n" + GOOD_ROWS + "1,2,3\n", encoding="utf-8")
        expected = one_process_outcome(monkeypatch, path)
        parent = os.getpid()
        read_rows, plain_rows = data._read_rows, data._plain_rows

        def failing_read_rows(*args, **kwargs):
            if os.getpid() != parent:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError
            return read_rows(*args, **kwargs)

        if failure.endswith("counted"):
            error = -1 if failure == "undercounted" else 1
            monkeypatch.setattr(data, "_plain_rows", lambda fd: plain_rows(fd) + error)
        else:
            monkeypatch.setattr(data, "_read_rows", failing_read_rows)
        use_workers(monkeypatch, 2)
        assert read_outcome(path) == expected
        assert len(fork_log["read"]) == 1
        assert_no_child_left()


    def test_an_interrupt_kills_the_workers_and_is_not_read_again(
        self, fork_log, monkeypatch, tmp_path
    ):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n" + GOOD_ROWS, encoding="utf-8")
        parent = os.getpid()
        read_rows = data._read_rows
        reads_here = []

        def interrupted_read_rows(*args, **kwargs):
            if os.getpid() == parent:
                reads_here.append(args)
                raise KeyboardInterrupt
            time.sleep(60)
            return read_rows(*args, **kwargs)

        monkeypatch.setattr(data, "_read_rows", interrupted_read_rows)
        use_workers(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            data.load_csv(path, "y")
        assert time.perf_counter() - start < 30
        assert os.getpid() == parent and len(fork_log["read"]) == 2
        assert len(reads_here) == 1
        assert_no_child_left()
        assert names(tmp_path) == ["data.csv"]


# What a worker meets, by the share it runs: nothing, an exception, a
# SIGKILL, a full disk under its temporary file, or no fork or no
# temporary file at all (which leaves that share and the later ones to
# the calling process).
WORKER_FAULTS = ["none", "raises", "dies", "full_disk", "no_fork", "no_file"]


def share_bytes(k):
    return f"share {k}\n".encode() * (k + 1)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestWrite:
    """`_shares.write` and `gather` called directly, over 2-4 shares of
    which any subset of the workers fails: the bytes are one process's,
    each failed share is done again here, and no child, file or file
    descriptor is left."""

    def faulty(self, monkeypatch, plan):
        """The work of share k, which meets ``plan[k]`` in a worker; the
        shares that the calling process did; and the shares for which
        `write` asked for a temporary file."""
        import signal

        parent = os.getpid()
        done_here = []
        temporary_file = tempfile.TemporaryFile
        fork = os.fork
        asked = []  # the share whose file or fork `write` asks for

        def temporary_file_for_share(**kwargs):
            asked.append(len(asked) + 1)
            if plan[asked[-1]] == "no_file":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            file = temporary_file(**kwargs)
            return FullDisk(file) if plan[asked[-1]] == "full_disk" else file

        def fork_for_share():
            if plan[asked[-1]] == "no_fork":
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        def work(k, file):
            if os.getpid() == parent:
                done_here.append(k)
            elif plan[k] == "raises":
                raise MemoryError
            elif plan[k] == "dies":
                os.kill(os.getpid(), signal.SIGKILL)
            file.write(share_bytes(k))

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file_for_share)
        monkeypatch.setattr(os, "fork", fork_for_share)
        return work, done_here, asked

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("via", ["write", "gather"])
    def test_any_workers_fail(self, monkeypatch, tmp_path, n, via):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        fds = open_fds()
        expected = b"".join(share_bytes(k) for k in range(n))
        for faults in itertools.product(WORKER_FAULTS, repeat=n - 1):
            plan = ["none", *faults]
            with monkeypatch.context() as patch:
                work, done_here, asked = self.faulty(patch, plan)
                if via == "write":
                    out = io.BytesIO()
                    _shares.write(out, range(n), work, str(tmp_path))
                    written = out.getvalue()
                else:
                    written = bytes(_shares.gather(range(n), work))
            assert written == expected, plan
            refused = next((k for k in asked if plan[k] in ("no_fork", "no_file")), n)
            assert done_here == [0, *(k for k in range(1, n) if plan[k] != "none" or k >= refused)]
            assert_no_child_left()
            assert list(tmp_path.iterdir()) == []
            assert open_fds() == fds

    def test_an_interrupt_while_waiting_kills_the_worker(self, monkeypatch, tmp_path):
        parent = os.getpid()
        waitpid = os.waitpid

        def work(k, file):
            if os.getpid() != parent:
                time.sleep(60)
            file.write(share_bytes(k))

        def interrupted_waitpid(pid, options):
            monkeypatch.setattr(os, "waitpid", waitpid)  # only the first wait
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "waitpid", interrupted_waitpid)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _shares.write(io.BytesIO(), range(2), work, str(tmp_path))
        assert time.perf_counter() - start < 30
        assert_no_child_left()


class LocalError(ValueError):
    def __init__(self, code):
        super().__init__(f"local failure {code}")


@pytest.mark.parametrize(
    "make",
    [
        lambda: ValueError("bad"),
        lambda: OSError(errno.ENOSPC, "No space left on device", "pred.csv"),
        lambda: errors.IoError("cannot write x"),
        lambda: errors.ParseError(3, 1, "bad cell"),
        lambda: errors.CorruptModel(4, "bad tree"),
        lambda: LocalError(7),
        lambda: KeyboardInterrupt(),
    ],
    ids=["ValueError", "OSError", "IoError", "ParseError", "CorruptModel", "LocalError",
         "KeyboardInterrupt"],
)
def test_an_error_in_every_process_keeps_its_class(tmp_path, monkeypatch, make):
    """A share that raises in its worker and again here raises here, as
    the exception one process raises (a ParseError keeps its row and
    column), after the shares before it. `gather` gives None for it, and
    lets an interrupt through."""
    use_workers(monkeypatch, 4)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    expected = make()
    for n in (2, 3, 4):

        def work(k, file):
            if k == n - 1:
                raise make()
            file.write(share_bytes(k))

        out = io.BytesIO()
        with pytest.raises(type(expected)) as info:
            _shares.write(out, range(n), work, str(tmp_path))
        assert type(info.value) is type(expected) and str(info.value) == str(expected)
        assert getattr(info.value, "row", None) == getattr(expected, "row", None)
        assert getattr(info.value, "col", None) == getattr(expected, "col", None)
        assert out.getvalue() == b"".join(share_bytes(k) for k in range(n - 1))
        if isinstance(expected, Exception):
            assert _shares.gather(range(n), work) is None
        else:
            with pytest.raises(KeyboardInterrupt):
                _shares.gather(range(n), work)
        assert_no_child_left()
        assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_moving_to_a_cpu_keeps_the_affinity_mask():
    mask = os.sched_getaffinity(0)
    for cpu in (max(mask), 1 << 20):  # one this process may use, one no machine has
        _shares._move_to(cpu, mask)
        assert os.sched_getaffinity(0) == mask
