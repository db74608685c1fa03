"""Meta-test: the repository itself lints clean with its own lint.toml.

This is the same gate CI runs; keeping it in the suite means a violation
fails locally before a PR ever reaches CI, and proves the shipped
configuration (excludes, allowlist, wallclock modules) actually resolves.
"""

import os

from repro.lint import lint_paths, load_config

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_repo_tree_lints_clean():
    config = load_config(os.path.join(REPO, "lint.toml"))
    paths = [os.path.join(REPO, d) for d in ("src", "tests", "benchmarks")]
    diags = lint_paths(paths, config)
    assert diags == [], "\n".join(d.render() for d in diags)


def test_repo_config_allowlists_only_rng_module():
    config = load_config(os.path.join(REPO, "lint.toml"))
    assert set(config.allow) == {"RPL001"}
    assert list(config.allow["RPL001"]) == ["src/repro/utils/rng.py"]


def test_flag_fixtures_are_excluded_from_tree_walks():
    config = load_config(os.path.join(REPO, "lint.toml"))
    assert config.excluded("tests/lint/fixtures/rpl001_flag.py")


def test_rule_set_covers_rpl001_through_rpl009():
    from repro.lint.rules import ALL_CHECKERS

    codes = {c.code for c in ALL_CHECKERS}
    assert codes == {f"RPL00{i}" for i in range(1, 10)}
    assert {c.code for c in ALL_CHECKERS if getattr(c, "project", False)} == {
        "RPL007", "RPL008", "RPL009",
    }


def test_project_rule_suppressions_are_documented():
    """The interprocedural rules pass over the tree with exactly the
    known justified inline ignores: StreamFeed's derived test-batch cache
    (rebuilt deterministically on resume, so not checkpoint state), and the
    two communicator tests whose ranks enter different collectives, or one
    rank none, on purpose."""
    found = []
    for sub in ("src", "tests", "benchmarks"):
        for dirpath, _, filenames in os.walk(os.path.join(REPO, sub)):
            if "fixtures" in dirpath:
                continue
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, 1):
                        if "repro-lint: ignore" not in line:
                            continue
                        if any(c in line for c in ("RPL007", "RPL008", "RPL009")):
                            found.append((os.path.relpath(path, REPO), lineno))
    assert sorted({p for p, _ in found}) == ["src/repro/train/feeds.py",
                                             "tests/parallel/test_comm.py"]
    assert len(found) == 4
