#!/usr/bin/env python3
"""Documentation lint for ntcsim. Stdlib only.

Two checks, both aimed at doc drift:

1. Link check: every relative markdown link in every tracked *.md must
   point at a file (or directory) that exists. External links
   (http/https/mailto) and pure in-page anchors are skipped -- CI must
   not depend on the network.

2. Command smoke: fenced ```sh blocks in README.md and
   docs/BENCHMARKING.md are parsed for `ntcsim` invocations; each one is
   re-run against the `tiny` preset at small scale (pass --ntcsim=PATH
   to enable). A documented flag that no longer exists, or a documented
   command that crashes, fails the lint. Bench binaries and build
   commands are not smoke-run -- they are covered by ctest's smoke label.

3. ntclint smoke: fenced ```sh blocks in docs/ARCHITECTURE.md are parsed
   for `ntclint` invocations (pass --ntclint=PATH to enable); each runs
   from the repo root and must exit 0, so the documented lint workflow
   cannot drift from the binary's actual flags.

Usage:
  python3 tools/doclint.py [--root=DIR] [--ntcsim=PATH/TO/ntcsim]
                           [--ntclint=PATH/TO/ntclint]

Exit codes: 0 ok, 1 failures found, 2 usage error.
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile

SKIP_DIRS = {".git", "build", ".claude", ".ccache", "third_party"}

# [text](target) -- excluding images' extra ! is unnecessary: image links
# must resolve too. Code spans are stripped first.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")

# Blocks whose commands we smoke-run.
SMOKE_DOCS = ("README.md", os.path.join("docs", "BENCHMARKING.md"))


def find_markdown(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for f in sorted(filenames):
            if f.endswith(".md"):
                yield os.path.join(dirpath, f)


def check_links(root):
    failures = []
    for path in find_markdown(root):
        with open(path, encoding="utf-8") as f:
            in_fence = False
            for lineno, line in enumerate(f, 1):
                if line.lstrip().startswith("```"):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for target in LINK_RE.findall(CODE_SPAN_RE.sub("", line)):
                    if target.startswith(("http://", "https://", "mailto:")):
                        continue
                    target = target.split("#", 1)[0]
                    if not target:  # pure in-page anchor
                        continue
                    resolved = os.path.normpath(
                        os.path.join(os.path.dirname(path), target))
                    if os.path.commonpath([resolved, root]) != root:
                        continue  # escapes the repo (GitHub-side URLs)
                    if not os.path.exists(resolved):
                        failures.append("%s:%d: broken link -> %s"
                                        % (os.path.relpath(path, root), lineno,
                                           target))
    return failures


def shell_blocks(path):
    """Yield logical command lines from ```sh fences, joining \\-continuations
    and dropping comment-only lines and inline comments."""
    lines = []
    with open(path, encoding="utf-8") as f:
        in_sh = False
        pending = ""
        for raw in f:
            stripped = raw.strip()
            if stripped.startswith("```"):
                in_sh = stripped == "```sh"
                pending = ""
                continue
            if not in_sh:
                continue
            if pending:
                stripped = pending + " " + stripped
                pending = ""
            if stripped.endswith("\\"):
                pending = stripped[:-1].strip()
                continue
            # Inline comments: shlex handles quoting, but these are simple
            # doc lines -- cut at an unquoted " #".
            cut = stripped.find(" #")
            if cut >= 0:
                stripped = stripped[:cut]
            if not stripped or stripped.startswith("#"):
                continue
            lines.append(stripped)
    return lines


def tiny_args(args):
    """Rewrite a documented argv (minus the binary) to run fast: tiny
    preset, small scale, capped request/op counts. Appended flags win
    because the CLI parses left to right (and --preset is order-free).
    --matrix runs every cell at its default size and rejects --setup, so
    only a single-cell or crash-sweep command gets a small setup; a single
    cell rejects --scale and --jobs, so only a batch command gets those."""
    out = []
    for a in args:
        if a.startswith("--requests="):
            a = "--requests=40"
        elif a.startswith("--ops="):
            a = "--ops=200"
        elif a.startswith("--setup="):
            a = "--setup=200"
        elif a.startswith("--config="):
            return None  # needs a user-supplied file; nothing to smoke
        out.append(a)
    out.append("--preset=tiny")
    crash_sweep = any(a == "--crash-sweep" or a.startswith("--crash-points=")
                      for a in args)
    if "--matrix" in args or crash_sweep:
        out += ["--scale=0.01", "--jobs=2"]
    if "--matrix" not in args:
        out.append("--setup=200")
    return out


def smoke_commands(root, ntcsim):
    failures = []
    ran = 0
    ran_nodes = 0  # documented --nodes (cluster) invocations exercised
    with tempfile.TemporaryDirectory() as tmp:
        for doc in SMOKE_DOCS:
            path = os.path.join(root, doc)
            if not os.path.exists(path):
                failures.append("%s: missing (SMOKE_DOCS drift)" % doc)
                continue
            for cmd in shell_blocks(path):
                # Strip output redirections; run everything in a tempdir
                # so --profile/--dump-config artifacts don't litter.
                cmd = re.split(r"\s+>{1,2}\s*\S+", cmd)[0]
                try:
                    tokens = shlex.split(cmd)
                except ValueError as e:
                    failures.append("%s: unparseable command %r (%s)"
                                    % (doc, cmd, e))
                    continue
                # Skip env-assignment prefixes (FOO=1 cmd ...).
                while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
                    tokens.pop(0)
                if not tokens or not tokens[0].endswith("/ntcsim"):
                    continue
                args = tiny_args(tokens[1:])
                if args is None:
                    continue
                ran += 1
                if any(a.startswith("--nodes") for a in args):
                    ran_nodes += 1
                proc = subprocess.run([ntcsim] + args, cwd=tmp,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, timeout=600)
                # --crash-at demos report the recovered-state verdict in
                # the exit code (2 = atomicity violation); the README
                # deliberately shows one under Optimal, so both verdicts
                # count as "the documented command works".
                ok = (0, 2) if any(a.startswith("--crash-at=") for a in args) \
                    else (0,)
                if proc.returncode not in ok:
                    failures.append(
                        "%s: documented command failed (exit %d):\n  %s\n%s"
                        % (doc, proc.returncode, cmd,
                           proc.stdout.decode(errors="replace")[-2000:]))
    if ran == 0:
        failures.append("smoke: no ntcsim commands found in %s -- the "
                        "extractor or the docs broke" % (SMOKE_DOCS,))
    elif ran_nodes == 0:
        failures.append("smoke: no documented --nodes invocation was "
                        "smoke-run -- the cluster docs lost their example")
    return failures, ran


def smoke_ntclint(root, ntclint):
    """Run every documented `ntclint` command from docs/ARCHITECTURE.md
    against the real binary; relative paths resolve from the repo root."""
    failures = []
    ran = 0
    doc = os.path.join("docs", "ARCHITECTURE.md")
    path = os.path.join(root, doc)
    if not os.path.exists(path):
        return ["%s: missing (ntclint smoke drift)" % doc], 0
    for cmd in shell_blocks(path):
        try:
            tokens = shlex.split(cmd)
        except ValueError as e:
            failures.append("%s: unparseable command %r (%s)" % (doc, cmd, e))
            continue
        if not tokens or os.path.basename(tokens[0]) != "ntclint":
            continue
        ran += 1
        proc = subprocess.run([ntclint] + tokens[1:], cwd=root,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=600)
        if proc.returncode != 0:
            failures.append(
                "%s: documented ntclint command failed (exit %d):\n  %s\n%s"
                % (doc, proc.returncode, cmd,
                   proc.stdout.decode(errors="replace")[-2000:]))
    if ran == 0:
        failures.append("smoke: no ntclint commands found in %s -- the "
                        "extractor or the docs broke" % doc)
    return failures, ran


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ntcsim = None
    ntclint = None
    for a in argv[1:]:
        if a.startswith("--root="):
            root = os.path.abspath(a.split("=", 1)[1])
        elif a.startswith("--ntcsim="):
            ntcsim = os.path.abspath(a.split("=", 1)[1])
        elif a.startswith("--ntclint="):
            ntclint = os.path.abspath(a.split("=", 1)[1])
        else:
            sys.stderr.write(__doc__)
            return 2

    failures = check_links(root)
    n_md = len(list(find_markdown(root)))
    print("doclint: checked links in %d markdown files" % n_md)

    if ntcsim:
        smoke_fail, ran = smoke_commands(root, ntcsim)
        failures += smoke_fail
        print("doclint: smoke-ran %d documented ntcsim commands" % ran)
    else:
        print("doclint: --ntcsim not given; skipping command smoke")

    if ntclint:
        lint_fail, ran = smoke_ntclint(root, ntclint)
        failures += lint_fail
        print("doclint: smoke-ran %d documented ntclint commands" % ran)
    else:
        print("doclint: --ntclint not given; skipping ntclint smoke")

    for f in failures:
        sys.stderr.write("doclint: FAIL: %s\n" % f)
    print("doclint: %s" % ("FAILED (%d)" % len(failures) if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
