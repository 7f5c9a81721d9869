"""The CLI's argv reader against the argparse parser it replaced.

``cli_reference`` keeps that parser: argparse's ``build_parser`` behind the
``_attached`` workaround, which glued a value that starts with '-' to its
option.  For every argv the two must both accept it with equal values for
every attribute the reference sets, both exit 2 on a usage error, or both
print help and exit 0.  Where the reference was at fault, the reader is
compared with what it meant: see ``reference`` and ``gives_a_dash_dash_value``.

The one reading that argparse changed between versions is pinned here rather
than asked of the running interpreter: a '-h' cluster with another letter,
such as "-hx", is refused (exit 2) by the reader and by the argparse of Python
3.10-3.12, while from Python 3.13 argparse prints the help.  ``reference``
hands argparse "--help=x" in its place, which every version refuses in the
same way, so this file passes on any Python the package supports.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_reference
from weylclosure import cli

COMMANDS = ["riquier", "member", "solve", "prop1", "verify-witness"]

OPTIONS = ["--field", "--s", "--q", "--cross-check", "--point", "--init", "--order",
           "--w", "--h", "--help", "-h"]
EQUALS_FORMS = ["--field=real", "--field=complex", "--field=quaternion", "--s=3", "--s=-1",
                "--s=x", "--q=D", "--q=-D^2", "--point=-1/2", "--init=1=1, D=0", "--order=4",
                "--w=x^2", "--h=-D", "--h=", "--cross-check=1", "--help=1", "-h=1", "-hh", "-hx",
                "--q=--", "--s=--"]
PREFIXES = ["--f", "--fi", "--c", "--cross", "--p", "--po", "--i", "--in", "--o", "--he",
            "--hel", "--x", "--=1", "--="]
DASH_VALUES = ["-1/2", "-D^2", "-D", "-x^2", "-", "-1.5", "- D", "--a b", "-1e5", "---",
               "--Q", "-hh"]
SPECIAL = ["-h", "--help", "--", "-1"]
PATHS = ["euler.sys", "a b.sys", "./x.sys"]
INTEGERS = ["0", "3", "12", "+3", " 4"]
NON_INTEGERS = ["x", "D^3", "1/2", "1=1, D=0", "", "real", "complex", "bogus"]

TOKENS = (COMMANDS + OPTIONS + EQUALS_FORMS + PREFIXES + DASH_VALUES + SPECIAL + PATHS
          + INTEGERS + NON_INTEGERS)

# Each subcommand's options, written in full or by a prefix, and the values
# they are given: most argvs of the third kind below are accepted.
SPELLINGS = {command: [option[:k] for option in options for k in range(3, len(option) + 1)]
             for command, options in [
                 ("riquier", ["--s"]), ("member", ["--q", "--cross-check"]),
                 ("solve", ["--point", "--init", "--order"]), ("prop1", ["--point", "--s"]),
                 # --w twice, as verify-witness requires it
                 ("verify-witness", ["--q", "--w", "--w", "--h"])]}
VALUES = INTEGERS + NON_INTEGERS + DASH_VALUES + ["-1", "--", "-h"]


def flattened(parts):
    *top, command, path, pairs = parts
    argv = [token for option in top for token in option] + [command, path]
    for option, value in pairs:
        argv += [option] if option.startswith("--c") else [option, value]
    return argv


ARGVS = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=8),
    st.tuples(st.lists(st.sampled_from(["--field", "real", "complex", "--f", "--field=complex",
                                        "-h", "--", "bogus"]), max_size=2),
              st.sampled_from(COMMANDS), st.sampled_from(PATHS + ["--", "-1"]),
              st.lists(st.sampled_from(TOKENS), max_size=6))
    .map(lambda parts: parts[0] + [parts[1], parts[2]] + parts[3]),
    st.sampled_from(COMMANDS).flatmap(lambda command: st.tuples(
        st.lists(st.sampled_from([("--field", "real"), ("--fi", "complex"),
                                  ("--field=complex",), ("--f", "-1")]), max_size=1),
        st.just(command), st.sampled_from(PATHS),
        st.lists(st.tuples(st.sampled_from(SPELLINGS[command]), st.sampled_from(VALUES)),
                 max_size=4))).map(lambda parts: flattened([*parts[0], *parts[1:]])),
)


def outcome(read, argv):
    """("accept", attributes), ("help", stdout) or ("exit 2", stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = read(list(argv))
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            return ("help", out.getvalue()) if exc.code == 0 else ("exit 2", err.getvalue())
    return "accept", vars(namespace)


def reference(argv):
    """argv read by the reference, its workaround mended in two ways.

    The workaround glued any value that starts with '-' to an option name
    before it, '--' too and past '--' too:

    - "--q --" became "--q=--", so q was an empty list (argparse strips '--'
      from a value) and main failed with a TypeError; "--h --" became an
      error.  The reader reads '--' as the end of the options, so "--q --"
      gives --q no value, as argparse does for "--po --";
    - past '--' both are positionals, but "member -- --s -1" read the system
      file '--s=-1'.

    Here the workaround glues no '--' and stops at the first one, and an
    option that is a '-h' cluster with another letter, "-hx" or "-hhx", is
    read as "--help=x": the error at that point that Python 3.10-3.12 give it.
    """
    attached = []
    for k, arg in enumerate(argv):
        if arg == "--":
            return cli_reference.parser().parse_args(pinned(attached) + argv[k:])
        attached.append(arg)
        attached[-2:] = cli_reference._attached(attached[-2:])
    return cli_reference.parser().parse_args(pinned(attached))


HELP_CLUSTER = re.compile(r"-h+([^h=].*)")


def pinned(options):
    """These argv options with each '-h' cluster that has another letter in it
    spelled as "--help=" and the letters after its h's."""
    return [f"--help={match[1]}" if (match := HELP_CLUSTER.fullmatch(arg)) else arg
            for arg in options]


def gives_a_dash_dash_value(argv):
    """argv gives an option the value '--' after '=', as "--q=--".

    argparse strips '--' from a value, so the reference set q to an empty list
    there, and main failed with a TypeError.  The reader reads "--q=--" as the
    text '--', so "--s=--" is not an integer.
    """
    for arg in argv:
        if arg == "--":
            return False
        name, _, value = arg.partition("=")
        if value == "--" and name[:2] == "--" and any(
                option.startswith(name) for option in cli_reference._VALUE_OPTIONS):
            return True
    return False


def agrees(argv):
    got, want = outcome(cli.parse_argv, argv), outcome(reference, argv)
    if gives_a_dash_dash_value(argv):
        if got[0] == "exit 2" and got[1].endswith(
                ("value: '--'\n", "choice: '--' (choose from 'real', 'complex')\n")):
            return  # refused at the '--' value
        if want[0] == "accept":  # the text '--' where the reference has []
            want = "accept", {name: ["--" if v == [] else v for v in value] if name == "h"
                              else "--" if value == [] else value
                              for name, value in want[1].items()}
    assert got[0] == want[0], (argv, got, want)
    if got[0] == "accept":
        assert got[1] == want[1], argv
    elif got[0] == "help":
        assert got[1].startswith("usage: weylclosure"), argv
    else:
        usage, error = got[1].splitlines()
        assert usage.startswith("usage: weylclosure") and ": error: " in error, argv


@settings(max_examples=1000, deadline=None)
@given(ARGVS)
def test_the_reader_agrees_with_the_argparse_parser(argv):
    agrees(argv)


# Every argv of the cli benchmark workload, the README and the CI, one case each.
PINNED = [
    # bench/workloads.py: the hand-written systems and the generated ones
    ["riquier", "euler.sys", "--s", "3"],
    ["prop1", "euler.sys", "--point", "1", "--s", "4"],
    ["solve", "euler.sys", "--point", "1", "--init", "1=1, D=1", "--order", "4"],
    ["member", "euler.sys", "--q", "D^3", "--cross-check"],
    ["verify-witness", "euler.sys", "--q", "D^3", "--w", "x^2", "--h", "D"],
    ["riquier", "hermite.sys"],
    ["prop1", "hermite.sys", "--point", "0", "--s", "2"],
    ["member", "hermite.sys", "--cross-check"],
    ["verify-witness", "hermite.sys", "--q", "D^2 - x^2 + 1", "--w", "1", "--h=-1"],
    ["riquier", "gradient.sys", "--s", "1"],
    ["prop1", "gradient.sys", "--point", "0, 0", "--s", "1"],
    ["member", "gradient.sys", "--q", "x1*D1*D2 + D2", "--cross-check"],
    ["member", "vector.sys", "--q", "D^2 [u1] + x [u2]", "--cross-check"],
    ["verify-witness", "vector.sys", "--q", "D^2 [u1] + x [u2]", "--w", "1", "--h", "D",
     "--h", "x"],
    ["solve", "d_plus_x.sys", "--point", "0", "--init", "1=1", "--order", "4"],
    ["member", "d_plus_x.sys", "--q=(-D + x)*(D + x)", "--cross-check"],
    ["solve", "d_minus_1.sys", "--point", "0", "--init", "1=1", "--order", "5"],
    ["riquier", "gen0.sys"],
    ["prop1", "gen0.sys"],
    ["prop1", "gen0.sys", "--s", "2"],
    ["solve", "gen0.sys"],
    ["solve", "gen0.sys", "--order", "3", "--init=1=1, D1=2"],
    ["solve", "gen0.sys", "--order", "3"],
    ["member", "gen0.sys", "--q=-x1*D1 + 1/2", "--cross-check"],
    ["verify-witness", "gen0.sys", "--q=-x1*D1 + 1/2", "--w=1", "--h=-x1", "--h=0"],
    # README
    ["solve", "euler.sys", "--point", "1", "--init", "1=1, D=2", "--order", "6"],
    ["prop1", "euler.sys", "--point", "-1/2", "--s", "4"],
    ["member", "euler.sys", "--q", "-D^2"],
    ["verify-witness", "euler.sys", "--q", "D^3", "--w", "x^2", "--h", "-D"],
    ["--field", "complex", "member", "gaussian.sys", "--q", "D^2"],
    # CI's console-script step
    ["riquier", "gradient.sys", "--s", "1"],
    ["member", "gaussian.sys", "--cross-check"],
    ["member", "gaussian.sys", "--q", "D^2", "--cross-check"],
    ["verify-witness", "hermite.sys", "--q", "D^2 - x^2 + 1", "--w", "1", "--h=1"],
    ["verify-witness", "gaussian.sys", "--q", "D^2", "--w", "x + i", "--h=(-x + i)*D"],
    ["member", "collapse.sys", "--q", "D1*D2 [u1]", "--cross-check"],
    ["member", "tail70.sys", "--q", "D1"],
    ["verify-witness", "tail70.sys", "--q", "D1", "--w", "x1", "--h=1", "--h=x2"],
    ["member", "tail103.sys", "--q", "D1 [u1]"],
    ["member", "degree20.sys", "--cross-check"],
    ["verify-witness", "degree20.sys", "--w", "x^20", "--h=D", "--h=1"],
    ["verify-witness", "exp.sys", "--q", "D - 1", "--w", "(x^2 - 1)/(x - 1)", "--h", "x + 1"],
    ["verify-witness", "mixed.sys", "--q", "D - 1", "--w", "i", "--h", "i", "--h", "0"],
    ["solve", "euler.sys", "--point", "-1/2", "--init", "1=1, D=0", "--order", "4"],
    ["solve", "heat.sys", "--point", "1, 1 + i", "--init",
     "1=1, D2=1 + i, D1=-i, D2^2=1/2 - i, D1*D2=2*i", "--order", "3"],
    ["solve", "expi.sys", "--point", "0", "--init", "1=1", "--order", "4"],
    ["solve", "d1.sys", "--order", "2", "--init", "D2=1"],
    ["solve", "d1.sys", "--init", "D1=1"],
    ["riquier", "exponent.sys"],
    ["--help"],
    ["verify-witness", "--help"],
    ["member", "euler.sys", "--q"],
    ["member", "euler.sys", "--cross", "--q", "D^3"],
]


@pytest.mark.parametrize("argv", PINNED, ids=" ".join)
def test_every_argv_of_the_benchmark_the_readme_and_ci(argv):
    agrees(argv)


@pytest.mark.parametrize("argv, error", [
    (["member", "x.sys", "--q"], "weylclosure member: error: argument --q: expected one argument"),
    (["riquier", "x.sys", "--s", "two"],
     "weylclosure riquier: error: argument --s: invalid int value: 'two'"),
    (["verify-witness", "--q", "D"],
     "weylclosure verify-witness: error: the following arguments are required: system, --w"),
    ([], "weylclosure: error: the following arguments are required: command"),
    (["member", "x.sys", "y.sys"], "weylclosure: error: unrecognized arguments: y.sys"),
    (["member", "x.sys", "--field", "real"],
     "weylclosure: error: unrecognized arguments: --field real"),
    (["member", "x.sys", "--=D"],
     "weylclosure: error: ambiguous option: --=D could match --help, --field"),
    (["--field", "quaternion", "riquier", "x.sys"],
     "weylclosure: error: argument --field: invalid choice: 'quaternion' "
     "(choose from 'real', 'complex')"),
    (["bogus", "x.sys"],
     "weylclosure: error: argument command: invalid choice: 'bogus' "
     "(choose from 'riquier', 'member', 'solve', 'prop1', 'verify-witness')"),
    (["member", "x.sys", "--cross-check=yes"],
     "weylclosure member: error: argument --cross-check: ignored explicit argument 'yes'"),
])
def test_a_usage_error_exits_2_with_the_reference_error_text(capsys, argv, error):
    for read in (cli_reference.parse, cli.parse_argv):
        with pytest.raises(SystemExit) as info:
            read(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: weylclosure")
        assert captured.err.splitlines()[-1] == error


@pytest.mark.parametrize("argv, error", [
    (["-hx"], "weylclosure: error: argument -h/--help: ignored explicit argument 'x'"),
    (["-hhx", "riquier", "x.sys"],
     "weylclosure: error: argument -h/--help: ignored explicit argument 'x'"),
    (["member", "x.sys", "-hxy"],
     "weylclosure member: error: argument -h/--help: ignored explicit argument 'xy'"),
])
def test_a_help_cluster_with_another_letter_exits_2(capsys, argv, error):
    # pinned, not asked of the running argparse: Python 3.10-3.12 give this
    # error, and from 3.13 argparse prints the help instead
    with pytest.raises(SystemExit) as info:
        cli.parse_argv(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == error
    # "-hh" is the help twice
    with pytest.raises(SystemExit) as info:
        cli.parse_argv(["-hh"])
    assert info.value.code == 0 and capsys.readouterr().out.startswith("usage: weylclosure")


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_the_help_lists_every_option_of_the_table(capsys, command):
    with pytest.raises(SystemExit) as info:
        cli.parse_argv(["--help"] if command is None else [command, "-h"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: weylclosure {command or ''}".rstrip())
    names = ["--field", *cli._COMMANDS] if command is None else [
        "system", *(o.name for o in cli._COMMANDS[command].options)]
    for name in ["-h, --help", *names]:
        assert f"\n  {name}" in out, name
