#!/usr/bin/env python3
"""Keep the documentation honest: every checkable reference in docs/*.md
and README.md must point at something that exists in the tree.

Four reference kinds are extracted and verified:

  * shell dot-commands (`.threads`, `.limits mem 1000000`, ...) — the
    first token of any inline code span or fenced-code line that starts
    with '.', checked against the dot-commands actually implemented in
    examples/shell.cpp (its double-quoted string literals);
  * STARMAGIC_* environment/CMake variables — checked against the
    source tree (src/, bench/, scripts/, examples/, tests/, CMake
    files);
  * repo paths (src/..., bench/..., docs/..., scripts/, examples/,
    tests/) — checked against the filesystem. Globs and placeholders
    (`bench_*`, `TRACE_<name>.json`) are skipped: they name patterns,
    not files;
  * the sys.* system-table schema — the column tables in
    docs/system-tables.md are reconciled BOTH WAYS against the
    kSysSchemaSpec block in src/sys/system_tables.cc (the registry's
    source of truth): every registry column must be documented with
    its type, and every documented table/column must still exist;
  * the HTTP observability endpoints — the endpoint table in
    docs/metrics-export.md is reconciled BOTH WAYS against the
    kObsRouteSpec block in src/net/obs_server.cc (the route table the
    server actually dispatches on): every served route must be
    documented and every documented endpoint must still be served;
  * the rewrite rules — the rule table in docs/architecture.md is
    reconciled BOTH WAYS against the name() strings of the rules in
    src/rewrite/*.h and src/magic/emst_rule.h: every rule must have a
    row and every row must name a rule that exists.

Usage:
  doc_check.py              verify the repo's docs; exit 1 on any stale
                            reference
  doc_check.py --self-test  also inject one stale reference of each kind
                            and assert the checker catches all of them
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_GLOBS = ["README.md"]
DOC_DIR = "docs"

# Directories whose mention in a doc is a checkable path reference.
PATH_PREFIXES = ("src/", "bench/", "docs/", "scripts/", "examples/",
                 "tests/")

# The lookbehind keeps build-artifact paths (./build/examples/shell) and
# other nested mentions from being mistaken for tree paths.
PATH_RE = re.compile(
    r"(?<![\w/])((?:src|bench|docs|scripts|examples|tests)"
    r"/[A-Za-z0-9_.*<>{}/-]+)")
ENV_RE = re.compile(r"\bSTARMAGIC_[A-Z_]+\b")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
DOT_CMD_RE = re.compile(r"^\.([a-z]+)\b")
# Dot-commands inside shell.cpp string literals (".help", help text, ...).
SHELL_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
SHELL_CMD_RE = re.compile(r"(?<![\w/.])\.([a-z]+)")

# Files scanned for STARMAGIC_* definitions/uses.
SOURCE_SUFFIXES = (".h", ".cc", ".cpp", ".py", ".sh", ".txt", ".cmake")
SOURCE_DIRS = ("src", "bench", "scripts", "examples", "tests")


def doc_files():
    files = [os.path.join(ROOT, f) for f in DOC_GLOBS]
    doc_dir = os.path.join(ROOT, DOC_DIR)
    for name in sorted(os.listdir(doc_dir)):
        if name.endswith(".md"):
            files.append(os.path.join(doc_dir, name))
    return files


def extract_dot_commands(text):
    """Dot-commands a doc claims the shell understands: the first token
    of an inline code span or a fenced-code line (after any 'magic> '
    prompt) that starts with '.'."""
    commands = set()
    for span in CODE_SPAN_RE.findall(text):
        m = DOT_CMD_RE.match(span.strip())
        if m:
            commands.add(m.group(1))
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        stripped = line.strip()
        stripped = re.sub(r"^(magic|\s*\.\.\.)>\s*", "", stripped)
        m = DOT_CMD_RE.match(stripped)
        if m:
            commands.add(m.group(1))
    return commands


def extract_paths(text):
    """Repo paths mentioned in a doc, with markdown/sentence punctuation
    trimmed; globs and <placeholders> are skipped."""
    paths = set()
    for raw in PATH_RE.findall(text):
        path = raw.rstrip(".,:;)`'\"")
        if any(c in path for c in "*<>{}"):
            continue
        paths.add(path.rstrip("/"))
    return paths


def shell_commands():
    """The dot-commands examples/shell.cpp actually implements, read
    from its double-quoted string literals ('.help' text and the
    cmd == \".quit\" comparisons alike)."""
    shell_path = os.path.join(ROOT, "examples", "shell.cpp")
    with open(shell_path, encoding="utf-8") as f:
        source = f.read()
    commands = set()
    for literal in SHELL_LITERAL_RE.findall(source):
        commands.update(SHELL_CMD_RE.findall(literal))
    return commands


def tree_env_vars():
    """Every STARMAGIC_* token appearing in the source tree (including
    CMakeLists, scripts, and tests)."""
    found = set()
    roots = [os.path.join(ROOT, d) for d in SOURCE_DIRS]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name == "CMakeLists.txt" or name.endswith(SOURCE_SUFFIXES):
                    files.append(os.path.join(dirpath, name))
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                found.update(ENV_RE.findall(f.read()))
        except (OSError, UnicodeDecodeError):
            continue
    return found


# --- sys.* schema reconciliation -------------------------------------------

SYS_SPEC_PATH = os.path.join("src", "sys", "system_tables.cc")
SYS_DOC_PATH = os.path.join("docs", "system-tables.md")
SYS_SPEC_RE = re.compile(r'"(sys\.\w+)\|(\w+)\|(\w+)"')
SYS_HEADING_RE = re.compile(r"^## (sys\.\w+)\s*$")
SYS_DOC_ROW_RE = re.compile(r"^\| `(\w+)` \| (\w+) \|")


def sys_schema_spec():
    """(table, column) -> type from the kSysSchemaSpec block in
    src/sys/system_tables.cc (delimited by doc_check:sys-schema-begin/
    end markers) — the registry builds its schemas from this block, so
    it IS the live schema."""
    path = os.path.join(ROOT, SYS_SPEC_PATH)
    with open(path, encoding="utf-8") as f:
        source = f.read()
    begin = source.find("doc_check:sys-schema-begin")
    end = source.find("doc_check:sys-schema-end")
    if begin < 0 or end < 0 or end <= begin:
        return {}
    spec = {}
    for table, column, col_type in SYS_SPEC_RE.findall(source[begin:end]):
        spec[(table, column)] = col_type
    return spec


def parse_sys_doc(text):
    """(table, column) -> type from the '## sys.<name>' column tables in
    docs/system-tables.md. Only rows of the form '| `col` | TYPE |'
    under a sys heading count, so prose mentions stay free-form."""
    documented = {}
    table = None
    for line in text.splitlines():
        heading = SYS_HEADING_RE.match(line)
        if heading:
            table = heading.group(1)
            documented.setdefault(table, {})
            continue
        if line.startswith("## "):
            table = None
            continue
        if table is None:
            continue
        # Header rows ('| column | type |') have no backticks, so only
        # real '| `col` | TYPE |' rows match.
        row = SYS_DOC_ROW_RE.match(line.strip())
        if row:
            documented[table][row.group(1)] = row.group(2)
    return documented


def check_sys_schema(spec, doc_text, name=SYS_DOC_PATH):
    """Both directions: registry -> doc (nothing undocumented) and
    doc -> registry (nothing stale)."""
    problems = []
    if not spec:
        problems.append(
            f"{SYS_SPEC_PATH}: kSysSchemaSpec block not found "
            "(doc_check:sys-schema markers moved?)")
        return problems
    documented = parse_sys_doc(doc_text)
    spec_tables = {t for t, _ in spec}
    for table in sorted(spec_tables - set(documented)):
        problems.append(f"{name}: system table '{table}' is in the "
                        "registry but has no '## {0}' section".format(table))
    for (table, column), col_type in sorted(spec.items()):
        if table not in documented:
            continue  # already reported above
        doc_type = documented[table].get(column)
        if doc_type is None:
            problems.append(f"{name}: column '{table}.{column}' is in "
                            "the registry but undocumented")
        elif doc_type != col_type:
            problems.append(f"{name}: column '{table}.{column}' is "
                            f"documented as {doc_type} but the registry "
                            f"says {col_type}")
    for table, columns in sorted(documented.items()):
        if table not in spec_tables:
            problems.append(f"{name}: documented system table '{table}' "
                            "is not in the registry")
            continue
        for column in sorted(columns):
            if (table, column) not in spec:
                problems.append(f"{name}: documented column "
                                f"'{table}.{column}' is not in the "
                                "registry")
    return problems


# --- HTTP route reconciliation ---------------------------------------------

OBS_SPEC_PATH = os.path.join("src", "net", "obs_server.cc")
OBS_DOC_PATH = os.path.join("docs", "metrics-export.md")
OBS_SPEC_RE = re.compile(r'\{"(\w+)",\s*"([^"]+)"')
OBS_DOC_ROW_RE = re.compile(r"^\| `([A-Z]+) ([^`]+)` \|")


def obs_route_spec():
    """[(method, pattern)] from the kObsRouteSpec block in
    src/net/obs_server.cc (delimited by doc_check:obs-routes-begin/end
    markers) — the exact table ObsServer::Routes() serves."""
    path = os.path.join(ROOT, OBS_SPEC_PATH)
    with open(path, encoding="utf-8") as f:
        source = f.read()
    begin = source.find("doc_check:obs-routes-begin")
    end = source.find("doc_check:obs-routes-end")
    if begin < 0 or end < 0 or end <= begin:
        return []
    return OBS_SPEC_RE.findall(source[begin:end])


def parse_obs_doc(text):
    """{(method, pattern)} from the endpoint table rows of
    docs/metrics-export.md ('| `GET /metrics` | ... |')."""
    endpoints = set()
    for line in text.splitlines():
        row = OBS_DOC_ROW_RE.match(line.strip())
        if row:
            endpoints.add((row.group(1), row.group(2).strip()))
    return endpoints


def check_obs_routes(routes, doc_text, name=OBS_DOC_PATH):
    """Both directions: server -> doc (every route documented) and
    doc -> server (no documented endpoint the server stopped serving)."""
    problems = []
    if not routes:
        problems.append(
            f"{OBS_SPEC_PATH}: kObsRouteSpec block not found "
            "(doc_check:obs-routes markers moved?)")
        return problems
    documented = parse_obs_doc(doc_text)
    for method, pattern in routes:
        if (method, pattern) not in documented:
            problems.append(f"{name}: route '{method} {pattern}' is "
                            "served but has no endpoint-table row")
    served = set(routes)
    for method, pattern in sorted(documented):
        if (method, pattern) not in served:
            problems.append(f"{name}: documented endpoint "
                            f"'{method} {pattern}' is not served by "
                            "ObsServer")
    return problems


# --- rewrite-rule reconciliation ---------------------------------------------

RULE_DOC_PATH = os.path.join("docs", "architecture.md")
RULE_HEADERS = (os.path.join("src", "rewrite"),
                os.path.join("src", "magic", "emst_rule.h"))
RULE_NAME_RE = re.compile(
    r'const char\* name\(\) const override \{\s*return "([^"]+)";')
RULE_DOC_ROW_RE = re.compile(r"^\| `([a-z-]+)` \|")


def rule_names():
    """The name() strings of the rewrite rules: every header in
    src/rewrite/ plus src/magic/emst_rule.h."""
    paths = []
    for entry in RULE_HEADERS:
        full = os.path.join(ROOT, entry)
        if os.path.isdir(full):
            paths += [os.path.join(full, n) for n in sorted(os.listdir(full))
                      if n.endswith(".h")]
        else:
            paths.append(full)
    names = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            names.update(RULE_NAME_RE.findall(f.read()))
    return names


def parse_rule_doc(text):
    """Rule names from the rows of the rule table in
    docs/architecture.md ('| `merge` | all | ... |')."""
    names = set()
    for line in text.splitlines():
        row = RULE_DOC_ROW_RE.match(line.strip())
        if row:
            names.add(row.group(1))
    return names


def check_rules(names, doc_text, name=RULE_DOC_PATH):
    """Both directions: rule -> doc (every rule has a row) and doc ->
    rule (no row names a rule that is gone)."""
    problems = []
    if not names:
        problems.append("src/rewrite: no rule name() strings found "
                        "(extraction broken?)")
        return problems
    documented = parse_rule_doc(doc_text)
    for rule in sorted(names - documented):
        problems.append(f"{name}: rewrite rule '{rule}' has no row in "
                        "the rule table")
    for rule in sorted(documented - names):
        problems.append(f"{name}: documented rewrite rule '{rule}' "
                        "does not exist")
    return problems


def check_docs(docs, valid_commands, valid_env):
    """Returns a list of 'file: problem' strings for `docs`, a list of
    (display_name, text) pairs."""
    problems = []
    for name, text in docs:
        for cmd in sorted(extract_dot_commands(text)):
            if cmd not in valid_commands:
                problems.append(
                    f"{name}: shell command '.{cmd}' is not implemented "
                    "in examples/shell.cpp")
        for var in sorted(set(ENV_RE.findall(text))):
            if var not in valid_env:
                problems.append(
                    f"{name}: environment variable '{var}' appears "
                    "nowhere in the source tree")
        for path in sorted(extract_paths(text)):
            if not os.path.exists(os.path.join(ROOT, path)):
                problems.append(f"{name}: path '{path}' does not exist")
    return problems


def self_test(valid_commands, valid_env, spec, sys_doc_text, routes,
              obs_doc_text, rules, rule_doc_text):
    """Injected drift of every kind must be caught — proving the
    checker would catch real drift, not just happen to pass today.
    Three generic stale references, four sys-schema mutations applied
    to the real docs/system-tables.md text (a table the registry
    doesn't have, a renamed column caught from BOTH directions, a
    changed column type), two route mutations applied to the real
    docs/metrics-export.md text (a removed endpoint row and a bogus
    documented endpoint), and two rule-table mutations applied to the
    real docs/architecture.md text (a removed rule row and a row for a
    rule that does not exist)."""
    # The variable name is assembled at runtime so this script's own
    # source (scanned by tree_env_vars) never defines it.
    stale_var = "STARMAGIC_" + "NONEXISTENT_KNOB"
    stale_doc = (
        f"Use `.frobnicate` after setting {stale_var}=1;\n"
        "see src/no/such/file.cc for details.\n")
    problems = check_docs([("<self-test>", stale_doc)], valid_commands,
                          valid_env)
    expected = 3
    if len(problems) != expected:
        print(f"self-test FAILED: expected {expected} generic problems, "
              f"got {len(problems)}:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return False

    stale_sys = sys_doc_text.replace(
        "| `wall_us` | INTEGER |", "| `wall_millis` | INTEGER |")
    stale_sys = stale_sys.replace("| `rule` | TEXT |", "| `rule` | BLOB |")
    stale_sys += ("\n## sys.flux\n\n| column | type | description |\n"
                  "|---|---|---|\n| `warp` | TEXT | bogus |\n")
    for needle in ("wall_millis", "BLOB", "sys.flux"):
        if needle not in stale_sys:
            print(f"self-test FAILED: sys mutation '{needle}' did not "
                  "apply (doc wording changed?)", file=sys.stderr)
            return False
    sys_problems = check_sys_schema(spec, stale_sys, name="<sys-self-test>")
    sys_expected = 4  # wall_us undocumented, wall_millis unknown,
    #                   rule type mismatch, sys.flux unknown table
    if len(sys_problems) != sys_expected:
        print(f"self-test FAILED: expected {sys_expected} sys-schema "
              f"problems, got {len(sys_problems)}:", file=sys.stderr)
        for p in sys_problems:
            print(f"  {p}", file=sys.stderr)
        return False

    stale_obs = obs_doc_text.replace("| `GET /healthz` |", "| `GET | ", 1)
    stale_obs += "\n| `GET /teapot` | short and stout |\n"
    if "| `GET /healthz` |" in stale_obs or "/teapot" not in stale_obs:
        print("self-test FAILED: route mutations did not apply "
              "(endpoint-table wording changed?)", file=sys.stderr)
        return False
    obs_problems = check_obs_routes(routes, stale_obs,
                                    name="<obs-self-test>")
    obs_expected = 2  # /healthz undocumented, /teapot not served
    if len(obs_problems) != obs_expected:
        print(f"self-test FAILED: expected {obs_expected} route "
              f"problems, got {len(obs_problems)}:", file=sys.stderr)
        for p in obs_problems:
            print(f"  {p}", file=sys.stderr)
        return False

    stale_rules = rule_doc_text.replace("| `merge` |", "| merge |", 1)
    stale_rules += "\n| `loop-unroll` | all | bogus |\n"
    if "| `merge` |" in stale_rules:
        print("self-test FAILED: rule mutation did not apply (rule-table "
              "wording changed?)", file=sys.stderr)
        return False
    rule_problems = check_rules(rules, stale_rules, name="<rule-self-test>")
    rule_expected = 2  # merge undocumented, loop-unroll does not exist
    if len(rule_problems) != rule_expected:
        print(f"self-test FAILED: expected {rule_expected} rule problems, "
              f"got {len(rule_problems)}:", file=sys.stderr)
        for p in rule_problems:
            print(f"  {p}", file=sys.stderr)
        return False
    total = expected + sys_expected + obs_expected + rule_expected
    print(f"self-test ok ({total} injected stale references caught)")
    return True


def main():
    run_self_test = "--self-test" in sys.argv[1:]

    valid_commands = shell_commands()
    valid_env = tree_env_vars()
    if not valid_commands:
        print("doc_check: no dot-commands found in examples/shell.cpp "
              "(extraction broken?)", file=sys.stderr)
        return 1

    docs = []
    checked_refs = 0
    for path in doc_files():
        with open(path, encoding="utf-8") as f:
            text = f.read()
        rel = os.path.relpath(path, ROOT)
        docs.append((rel, text))
        checked_refs += (len(extract_dot_commands(text))
                         + len(set(ENV_RE.findall(text)))
                         + len(extract_paths(text)))

    problems = check_docs(docs, valid_commands, valid_env)

    spec = sys_schema_spec()
    sys_doc_text = ""
    sys_doc_path = os.path.join(ROOT, SYS_DOC_PATH)
    if os.path.exists(sys_doc_path):
        with open(sys_doc_path, encoding="utf-8") as f:
            sys_doc_text = f.read()
    problems += check_sys_schema(spec, sys_doc_text)
    checked_refs += len(spec)

    routes = obs_route_spec()
    obs_doc_text = ""
    obs_doc_path = os.path.join(ROOT, OBS_DOC_PATH)
    if os.path.exists(obs_doc_path):
        with open(obs_doc_path, encoding="utf-8") as f:
            obs_doc_text = f.read()
    problems += check_obs_routes(routes, obs_doc_text)
    checked_refs += len(routes)

    rules = rule_names()
    with open(os.path.join(ROOT, RULE_DOC_PATH), encoding="utf-8") as f:
        rule_doc_text = f.read()
    problems += check_rules(rules, rule_doc_text)
    checked_refs += len(rules)

    for p in problems:
        print(f"STALE {p}", file=sys.stderr)
    print(f"doc_check: {len(docs)} docs, {checked_refs} references, "
          f"{len(problems)} stale")

    if run_self_test and not self_test(valid_commands, valid_env, spec,
                                       sys_doc_text, routes, obs_doc_text,
                                       rules, rule_doc_text):
        return 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
