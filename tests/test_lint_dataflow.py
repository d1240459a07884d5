"""Tests for PR 10's lint additions: the interprocedural RNG-custody dataflow
rules, the vectorized-tier rules, SARIF output and the allowlist path-form
unification.

Per new rule: a positive fixture (the violation fires), a negative fixture (the
disciplined idiom passes) and a suppressed fixture (the inline escape hatch
works) — each one is exactly what the CI strict gate would catch. Plus the
cross-module taint fixture (a stream built in one module, drawn order-dependently
in another) and SARIF 2.1.0 document shape.
"""

from __future__ import annotations

import json
import subprocess
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import (
    Allowlist,
    LintReport,
    report_to_sarif,
    rule_ids,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_source(
    tmp_path: Path,
    source: str,
    name: str = "module.py",
    rules=None,
    strict: bool = False,
    allowlist=None,
) -> LintReport:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    if allowlist is None:
        allowlist = Allowlist.empty()
    return run_lint([path], rules=rules, strict=strict, allowlist=allowlist)


def lint_package(tmp_path: Path, files, target: str, rules=None) -> LintReport:
    """Write a ``repro``-shaped package of fixture modules and lint ``target``
    (so the dataflow resolver finds the package root and sibling modules)."""
    (tmp_path / "repro").mkdir(parents=True, exist_ok=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([tmp_path / target], rules=rules, allowlist=Allowlist.empty())


def finding_rules(report: LintReport):
    return [finding.rule for finding in report.sorted_findings()]


# ------------------------------------------------------------- RNG custody rules


class TestDrawInUnorderedLoop:
    def test_draw_in_set_loop_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            def jitter(peers, seed):
                stream = random.Random(seed)
                out = []
                for peer in set(peers):
                    out.append(stream.random())
                return out
            """,
            rules=["draw-in-unordered-loop"],
        )
        assert finding_rules(report) == ["draw-in-unordered-loop"]
        assert "hash order" in report.findings[0].message

    def test_set_comprehension_draw_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def sample(rng, ids):
                members = {x for x in ids}
                return [rng.randint(0, 9) for m in members]
            """,
            rules=["draw-in-unordered-loop"],
        )
        assert finding_rules(report) == ["draw-in-unordered-loop"]

    def test_sorted_iteration_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def jitter(rng, peers):
                return [rng.random() for peer in sorted(set(peers))]
            """,
            rules=["draw-in-unordered-loop"],
        )
        assert report.findings == []

    def test_positional_stream_keys_pass(self, tmp_path):
        # columnar.rng draws are keyed by position, not stream state — the safe
        # idiom the rule exists to steer people toward must not be flagged.
        report = lint_source(
            tmp_path,
            """
            from repro.columnar.rng import stream

            def keys(base, rows):
                base_key = stream(base, 1, 2)
                return [base_key ^ row for row in {1, 2, 3}]
            """,
            rules=["draw-in-unordered-loop"],
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def jitter(rng, peers):
                out = []
                for peer in set(peers):
                    out.append(rng.random())  # repro-lint: allow[draw-in-unordered-loop]
                return out
            """,
            rules=["draw-in-unordered-loop"],
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestSharedStream:
    def test_two_consumer_scopes_fire(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            rng = random.Random(0)

            def jitter():
                return rng.random()

            def backoff():
                return rng.uniform(0.0, 1.0)
            """,
            rules=["shared-stream"],
        )
        assert finding_rules(report) == ["shared-stream"]
        assert "derive" in report.findings[0].message

    def test_single_consumer_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            rng = random.Random(0)

            def jitter():
                return rng.random()
            """,
            rules=["shared-stream"],
        )
        assert report.findings == []

    def test_per_consumer_derivation_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from repro.simulator.seeding import derive_seed
            import random

            def jitter(master):
                rng = random.Random(derive_seed(master, "jitter"))
                return rng.random()

            def backoff(master):
                rng = random.Random(derive_seed(master, "backoff"))
                return rng.random()
            """,
            rules=["shared-stream"],
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            rng = random.Random(0)

            def jitter():
                return rng.random()

            def backoff():
                return rng.uniform(0.0, 1.0)  # repro-lint: allow[shared-stream]
            """,
            rules=["shared-stream"],
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestRngCrossesProcess:
    def test_pickled_stream_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import pickle
            import random

            def snapshot(seed):
                rng = random.Random(seed)
                return pickle.dumps({"rng": rng})
            """,
            rules=["rng-crosses-process"],
        )
        assert finding_rules(report) == ["rng-crosses-process"]
        assert "derive_seed" in report.findings[0].message

    def test_queue_put_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def enqueue(work_queue, rng):
                work_queue.put((rng, 1))
            """,
            rules=["rng-crosses-process"],
        )
        assert finding_rules(report) == ["rng-crosses-process"]

    def test_process_args_fire(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import multiprocessing
            import random

            def launch(worker, seed):
                rng = random.Random(seed)
                return multiprocessing.Process(target=worker, args=(rng,))
            """,
            rules=["rng-crosses-process"],
        )
        assert finding_rules(report) == ["rng-crosses-process"]

    def test_shipping_the_seed_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from repro.simulator.seeding import derive_seed

            def enqueue(work_queue, master, cell):
                work_queue.put(derive_seed(master, cell))
            """,
            rules=["rng-crosses-process"],
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def enqueue(work_queue, rng):
                work_queue.put(rng)  # repro-lint: allow[rng-crosses-process]
            """,
            rules=["rng-crosses-process"],
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestCrossModuleTaint:
    def test_stream_built_elsewhere_is_tracked(self, tmp_path):
        # The acceptance fixture: module A returns a stream, module B consumes
        # it inside set iteration under a non-conventional local name — only the
        # cross-module return summary can see that ``stream`` is an RNG.
        report = lint_package(
            tmp_path,
            {
                "repro/maker.py": """
                    import random

                    def make_stream(seed):
                        return random.Random(seed)
                    """,
                "repro/consumer.py": """
                    from repro.maker import make_stream

                    def pick(peers, seed):
                        stream = make_stream(seed)
                        return [stream.random() for peer in set(peers)]
                    """,
            },
            "repro/consumer.py",
            rules=["draw-in-unordered-loop"],
        )
        assert finding_rules(report) == ["draw-in-unordered-loop"]

    def test_non_stream_return_not_tainted(self, tmp_path):
        report = lint_package(
            tmp_path,
            {
                "repro/maker.py": """
                    def make_label(seed):
                        return f"cell-{seed}"
                    """,
                "repro/consumer.py": """
                    from repro.maker import make_label

                    def pick(peers, seed):
                        label = make_label(seed)
                        return [label for peer in set(peers)]
                    """,
            },
            "repro/consumer.py",
            rules=["draw-in-unordered-loop"],
        )
        assert report.findings == []


# ------------------------------------------------------------ vectorization tier


class TestHotloopPythonScan:
    def test_unguarded_row_loop_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            class Engine:
                def census(self):
                    total = 0
                    for row in range(self._rows):
                        total += self.alive[row]
                    return total
            """,
            name="repro/columnar/engine.py",
            rules=["hotloop-python-scan"],
        )
        assert finding_rules(report) == ["hotloop-python-scan"]

    def test_numpy_guard_is_no_exemption(self, tmp_path):
        # A per-row loop behind an ``else`` of a numpy guard is still a per-row
        # loop: the engine has one (numpy) path, so nothing sanctions it.
        report = lint_source(
            tmp_path,
            """
            class Engine:
                def census(self):
                    if self.use_numpy:
                        return int(as_np(self.alive)[: self._rows].sum())
                    total = 0
                    for row in range(self._rows):
                        total += self.alive[row]
                    return total
            """,
            name="repro/columnar/engine.py",
            rules=["hotloop-python-scan"],
        )
        assert finding_rules(report) == ["hotloop-python-scan"]

    def test_allowlisted_scope_passes(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("hotloop-python-scan repro/columnar/engine.py census\n")
        report = lint_source(
            tmp_path,
            """
            def census(eng):
                return sum(eng.alive[row] for row in range(eng._rows))
            """,
            name="repro/columnar/engine.py",
            rules=["hotloop-python-scan"],
            allowlist=Allowlist.load(allow),
        )
        assert report.findings == []
        assert report.allowlisted == 1

    def test_outside_tier_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            class Engine:
                def census(self):
                    return sum(self.alive[row] for row in range(self._rows))
            """,
            name="repro/metrics/census.py",
            rules=["hotloop-python-scan"],
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            def sweep(eng):
                for row in eng.live_rows():  # repro-lint: allow[hotloop-python-scan]
                    eng.kick(row)
            """,
            name="repro/columnar/engine.py",
            rules=["hotloop-python-scan"],
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestHotloopAlloc:
    def test_row_scaled_alloc_in_loop_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def waves(rows, count):
                for wave in range(count):
                    want = np.full(rows.size, 7, dtype=np.int64)
                return want
            """,
            name="repro/columnar/shuffle.py",
            rules=["hotloop-alloc"],
        )
        assert finding_rules(report) == ["hotloop-alloc"]
        assert "hoist" in report.findings[0].message

    def test_hoisted_alloc_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def waves(rows, count):
                want = np.full(rows.size, 7, dtype=np.int64)
                for wave in range(count):
                    want[:] = wave
                return want
            """,
            name="repro/columnar/shuffle.py",
            rules=["hotloop-alloc"],
        )
        assert report.findings == []

    def test_constant_extent_alloc_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def waves(count):
                for wave in range(count):
                    scratch = np.zeros(8)
                return scratch
            """,
            name="repro/columnar/shuffle.py",
            rules=["hotloop-alloc"],
        )
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            def waves(rows, count):
                for wave in range(count):
                    want = np.full(rows.size, 7)  # repro-lint: allow[hotloop-alloc]
                return want
            """,
            name="repro/columnar/shuffle.py",
            rules=["hotloop-alloc"],
        )
        assert report.findings == []
        assert report.suppressed == 1


# ------------------------------------------------------------------ SARIF output


DIRTY = "import random\nvalue = random.random()\n"


class TestSarifOutput:
    def test_document_shape(self, tmp_path):
        report = lint_source(tmp_path, DIRTY)
        document = report_to_sarif(report)
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        declared = {rule["id"] for rule in driver["rules"]}
        assert set(rule_ids()) <= declared
        (result,) = run["results"]
        assert result["ruleId"] == "global-rng"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2
        assert location["region"]["startColumn"] >= 1  # SARIF is 1-based
        assert driver["rules"][result["ruleIndex"]]["id"] == "global-rng"

    def test_cli_sarif_format(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(target), "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"] == []

    def test_sarif_bytes_deterministic(self, tmp_path):
        from repro.lint import to_sarif_json

        report = lint_source(tmp_path, DIRTY)
        assert to_sarif_json(report) == to_sarif_json(report)


# ----------------------------------------------- allowlist path-form unification


class TestAllowlistPathForm:
    def test_src_prefixed_entry_still_matches(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock src/repro/experiments/runner.py *\n")
        report = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            name="src/repro/experiments/runner.py",
            allowlist=Allowlist.load(allow),
        )
        assert report.findings == []
        assert report.allowlisted == 1

    def test_strict_rejects_non_canonical_form(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock src/repro/experiments/runner.py *\n")
        report = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            name="src/repro/experiments/runner.py",
            strict=True,
            allowlist=Allowlist.load(allow),
        )
        assert finding_rules(report) == ["allowlist-path-form"]
        assert "repro/experiments/runner.py" in report.findings[0].message

    def test_canonical_form_is_strict_clean(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock repro/experiments/runner.py *\n")
        report = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            name="src/repro/experiments/runner.py",
            strict=True,
            allowlist=Allowlist.load(allow),
        )
        assert report.findings == []


# ----------------------------------------------------- --changed from a subdir


class TestChangedFromSubdir:
    def test_untracked_and_modified_found_from_subdirectory(
        self, tmp_path, capsys, monkeypatch
    ):
        repo = tmp_path / "repo"
        (repo / "pkg").mkdir(parents=True)
        env = {
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
        }

        def git(*args):
            subprocess.run(
                ["git", "-C", str(repo), *args],
                check=True,
                capture_output=True,
                env={**env, "PATH": "/usr/bin:/bin"},
            )

        git("init", "-q")
        tracked = repo / "pkg" / "tracked.py"
        tracked.write_text("x = 1\n")
        git("add", "pkg/tracked.py")
        git("commit", "-qm", "seed")
        # One modified tracked file + one brand-new untracked file, both dirty.
        tracked.write_text("import time\nstamp = time.time()\n")
        untracked = repo / "pkg" / "fresh.py"
        untracked.write_text("import random\nvalue = random.random()\n")

        # The regression: from a subdirectory, git's toplevel-relative diff
        # names used to be joined onto the subdir and silently dropped.
        monkeypatch.chdir(repo / "pkg")
        assert main(["lint", "--changed", "."]) == 1
        out = capsys.readouterr().out
        assert "tracked.py" in out
        assert "fresh.py" in out
