import json
from pathlib import Path

import pytest

from ssagrad import EvalError, eval_function, grad, parse_ir, print_ir, verify
from ssagrad.cli import main

from conftest import ANALYTIC_SRC
from test_spmd import LANE_EXIT_SRC

MUL_SRC = """
func @mul(%x: f64, %y: f64) -> f64 {
^entry:
  %r = mul %x, %y
  ret %r
}
"""

ABS_SRC = """
func @absval(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %pos = gt %x, %z
  br %pos, ^a(), ^b()
^a:
  jmp ^join(%x)
^b:
  %nx = neg %x
  jmp ^join(%nx)
^join(%v: f64):
  ret %v
}
"""


@pytest.fixture
def mul_file(tmp_path):
    p = tmp_path / "mul.ssair"
    p.write_text(MUL_SRC)
    return str(p)


@pytest.fixture
def abs_file(tmp_path):
    p = tmp_path / "absval.ssair"
    p.write_text(ABS_SRC)
    return str(p)


@pytest.fixture
def analytic_file(tmp_path):
    p = tmp_path / "analytic.ssair"
    p.write_text(ANALYTIC_SRC)
    return str(p)


def test_run(mul_file, capsys):
    assert main(["run", mul_file, "--entry", "mul", "--args", "[3,2]"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == 6.0
    assert err == ""


def test_run_multi_result(analytic_file, tmp_path, capsys):
    p = tmp_path / "two.ssair"
    p.write_text("""
func @two(%x: f64) -> (f64, f64) {
^entry:
  %d = add %x, %x
  %s = mul %x, %x
  ret %d, %s
}
""")
    assert main(["run", str(p), "--entry", "two", "--args", "[3]"]) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out) == [6.0, 9.0]


def test_run_tensor_io(analytic_file, capsys):
    w = {"shape": [2, 3], "data": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]}
    v = {"shape": [3, 1], "data": [1.0, 2.0, 3.0]}
    rc = main(["run", analytic_file, "--entry", "net",
               "--args", json.dumps([w, v])])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert isinstance(json.loads(out), float)


def test_grad(mul_file, capsys):
    rc = main(["grad", mul_file, "--entry", "mul",
               "--args", "[3,2]", "--seeds", "[1]"])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert out == '{"x":2.0,"y":3.0}\n'


def test_grad_default_unit_seeds(mul_file, capsys):
    assert main(["grad", mul_file, "--entry", "mul", "--args", "[3,2]"]) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out) == {"x": 2.0, "y": 3.0}


def test_grad_emit_ir_round_trips(abs_file, capsys):
    assert main(["grad", abs_file, "--entry", "absval", "--emit-ir"]) == 0
    out, _ = capsys.readouterr()
    m = parse_ir(out)
    assert "absval__aug" in m.functions and "absval__pb" in m.functions
    assert verify(m) == []
    assert print_ir(m) == out


def test_grad_nondifferentiable_names_op(tmp_path, capsys):
    p = tmp_path / "p.ssair"
    p.write_text("""
func @halfsig(%a: f64) -> f64 {
^entry:
  %s = sigmoid %a
  ret %s
}

func @packs(%x: tensor<3xf64>) -> tensor<2x3xf64> {
^entry:
  %p = fused_pack %x {fn = @halfsig}
  ret %p
}
""")
    rc = main(["grad", str(p), "--entry", "packs", "--emit-ir"])
    assert rc == 1
    _, err = capsys.readouterr()
    assert "fused_pack" in err


def test_batch(abs_file, capsys):
    rc = main(["batch", abs_file, "--entry", "absval", "-B", "3",
               "--args", "[-1,2,-3]"])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert json.loads(out) == [1.0, 2.0, 3.0]


def test_batch_nested_args(mul_file, capsys):
    rc = main(["batch", mul_file, "--entry", "mul", "-B", "2",
               "--args", "[[3,2],[5,4]]"])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert json.loads(out) == [6.0, 20.0]


def test_batch_lane_dependent_loop_exit(tmp_path, capsys):
    p = tmp_path / "exit.ssair"
    p.write_text(LANE_EXIT_SRC)
    assert main(["batch", str(p), "--entry", "f", "-B", "2", "--args", "[-2.5,1.0]"]) == 0
    out, _ = capsys.readouterr()
    assert out.strip() == "[3.5,4.0]"


def test_batch_lane_mismatch(abs_file, capsys):
    rc = main(["batch", abs_file, "--entry", "absval", "-B", "3",
               "--args", "[-1,2]"])
    assert rc == 2


EXP_SRC = """
func @e(%x: f64) -> f64 {
^entry:
  %y = exp %x
  ret %y
}

func @sg(%x: f64) -> f64 {
^entry:
  %y = sigmoid %x
  ret %y
}

func @either(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = lt %x, %z
  br %c, ^a(), ^b()
^a:
  %e = exp %x
  jmp ^j(%e)
^b:
  %n = neg %x
  %f = exp %n
  jmp ^j(%f)
^j(%r: f64):
  ret %r
}
"""


def test_exp_overflow_is_infinity_not_a_traceback(tmp_path, capsys):
    p = tmp_path / "exp.ssair"
    p.write_text(EXP_SRC)
    runs = [("e", 1000), ("sg", -1000), ("either", -1000), ("either", 1000)]
    for entry, x in runs:
        assert main(["run", str(p), "--entry", entry, "--args", f"[{x}]"]) == 0
    # batching also runs the arm each lane does not take
    assert main(["batch", str(p), "--entry", "either", "-B", "2",
                 "--args", "[-1000,1000]"]) == 0
    out, err = capsys.readouterr()
    assert out.split() == ['"Infinity"', "0.0", "0.0", "0.0", "[0.0,0.0]"]
    assert "Traceback" not in err


def test_itof_overflow_is_a_located_error(tmp_path, capsys):
    # an i64 beyond the f64 range faults where it is converted: eval_function
    # locates it, grad at the same place in the augmented function, and the
    # CLI exits 1 with the located message instead of a traceback
    src = "func @f(%n: i64) -> f64 {\n^entry:\n  %y = itof %n\n  ret %y\n}\n"
    m = parse_ir(src)
    with pytest.raises(EvalError) as want:
        eval_function(m, "f", (10 ** 400,))
    assert (want.value.function, want.value.block, want.value.index) == ("f", "entry", 0)
    with pytest.raises(EvalError) as got:
        grad(m, "f", (10 ** 400,))
    assert (got.value.function, got.value.block, got.value.message) == (
        "f__aug", "entry", want.value.message)
    p = tmp_path / "itof.ssair"
    p.write_text(src)
    assert main(["run", str(p), "--entry", "f", "--args", f"[{10 ** 400}]"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{want.value}\n")


NONFINITE_SRC = """
func @f(%x: f64, %v: tensor<2xf64>) -> (f64, f64, tensor<2xf64>) {
^entry:
  %e = exp %x
  %n = sub %e, %e
  %m = neg %e
  %w = exp %v
  ret %n, %m, %w
}
"""


def _no_constants(name):
    raise AssertionError(f"payload is not strict JSON: {name}")


def test_payloads_are_strict_json(tmp_path, capsys):
    p = tmp_path / "nonfinite.ssair"
    p.write_text(NONFINITE_SRC)
    lane = '[1000, {"shape": [2], "data": [1000, 0]}]'
    commands = [
        ["run", str(p), "--entry", "f", "--args", lane],
        ["grad", str(p), "--entry", "f", "--args", lane],
        ["batch", str(p), "--entry", "f", "-B", "2", "--args",
         f'[{lane}, [0, {{"shape": [2], "data": [0, -1000]}}]]'],
    ]
    payloads = []
    for argv in commands:
        assert main(argv) == 0
        payloads.append(json.loads(capsys.readouterr().out, parse_constant=_no_constants))
    inf_row = {"shape": [2], "data": ["Infinity", 1.0]}
    assert payloads[0] == ["NaN", "-Infinity", inf_row]
    assert payloads[1] == {"x": "-Infinity", "v": inf_row}
    assert payloads[2] == [["NaN", 0.0], ["-Infinity", -1.0],
                           [inf_row, {"shape": [2], "data": [1.0, 0.0]}]]


SAME_SRC = """
func @same(%x: f64, %v: tensor<2xf64>) -> (f64, tensor<2xf64>) {
^entry:
  ret %x, %v
}
"""

# the values test_payloads_are_strict_json reads from run, grad and batch
PAYLOAD_VALUES = ["NaN", "-Infinity", "Infinity", 0.0, -1.0, 1.0]
PAYLOAD_ROWS = [{"shape": [2], "data": ["Infinity", 1.0]}, {"shape": [2], "data": [1.0, 0.0]},
                {"shape": [2], "data": ["NaN", "-Infinity"]}]


def test_printed_values_read_back_as_args(tmp_path, capsys):
    p = tmp_path / "same.ssair"
    p.write_text(SAME_SRC)
    lanes = [[x, row] for x in PAYLOAD_VALUES for row in PAYLOAD_ROWS]
    for lane in lanes:
        assert main(["run", str(p), "--entry", "same", "--args", json.dumps(lane)]) == 0
        assert json.loads(capsys.readouterr().out, parse_constant=_no_constants) == lane
    assert main(["batch", str(p), "--entry", "same", "-B", str(len(lanes)),
                 "--args", json.dumps(lanes)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert out == [[x for x, _ in lanes], [row for _, row in lanes]]


@pytest.mark.parametrize("args", [
    '[Infinity, {"shape": [2], "data": [0, 0]}]',
    '[NaN, {"shape": [2], "data": [0, 0]}]',
    '[0, {"shape": [2], "data": [-Infinity, 0]}]',
    '["inf", {"shape": [2], "data": [0, 0]}]',
    '[0, {"shape": [2], "data": ["inf", 0]}]',
    '[0, {"shape": [2], "data": [" 2 ", 0]}]',
    '[0, {"shape": [2], "data": [true, 0]}]',
    '[1' + '0' * 400 + ', {"shape": [2], "data": [0, 0]}]',
    '[0, {"shape": [2], "data": [1' + '0' * 400 + ', 0]}]',
    '[' + '1' * 5000 + ', {"shape": [2], "data": [0, 0]}]',
], ids=["bare_inf", "bare_nan", "bare_in_data", "inf_string", "inf_string_in_data",
        "padded_string_in_data", "bool_in_data", "huge_int", "huge_int_in_data",
        "too_many_digits"])
def test_args_take_numbers_and_printed_strings_only(tmp_path, capsys, args):
    p = tmp_path / "same.ssair"
    p.write_text(SAME_SRC)
    assert main(["run", str(p), "--entry", "same", "--args", args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_check_valid_silent(mul_file, capsys):
    assert main(["check", mul_file]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""


def test_check_dominance_violation(tmp_path, capsys):
    text = print_ir(parse_ir(ABS_SRC)).replace("ret %v", "ret %nx")
    p = tmp_path / "bad.ssair"
    p.write_text(text)
    assert main(["check", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "does not dominate" in err


TWO_RET_SRC = """
func @g(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = gt %x, %z
  br %c, ^a(), ^b()
^a:
  ret %x
^b:
  %n = neg %x
  ret %n
}
"""


def test_check_structure_error_has_one_prefix(tmp_path, capsys):
    p = tmp_path / "two_ret.ssair"
    p.write_text(TWO_RET_SRC)
    assert main(["check", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "@g: expected exactly one ret block, found 2\n"


def test_check_long_block_chain(tmp_path, capsys):
    # 2,000 blocks in one jmp chain: deeper than Python's recursion limit
    n = 2000
    lines = ["func @chain(%x: f64) -> f64 {", "^entry:", "  jmp ^b0(%x)"]
    for i in range(n):
        lines += [f"^b{i}(%v{i}: f64):", f"  %w{i} = add %v{i}, %v{i}",
                  f"  jmp ^b{i + 1}(%w{i})" if i + 1 < n else f"  ret %w{i}"]
    p = tmp_path / "chain.ssair"
    p.write_text("\n".join(lines + ["}"]) + "\n")
    assert main(["check", str(p)]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""


def test_check_parse_error(tmp_path, capsys):
    p = tmp_path / "junk.ssair"
    p.write_text("funk @nope")
    assert main(["check", str(p)]) == 1
    _, err = capsys.readouterr()
    assert err != ""


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "ghost.ssair")]) == 2


def test_print_canonical(mul_file, capsys):
    assert main(["print", mul_file]) == 0
    out, _ = capsys.readouterr()
    assert out == print_ir(parse_ir(MUL_SRC))


def test_gradcheck(abs_file, capsys):
    rc = main(["gradcheck", abs_file, "--entry", "absval",
               "--trials", "5", "--seed", "1"])
    assert rc == 0
    out, _ = capsys.readouterr()
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["trials"] == 5
    assert rep["max_tape_dev"] <= 1e-12
    assert rep["max_fd_dev"] <= 1e-5


FUSED_FILE = str(Path(__file__).resolve().parent.parent / "perfbench" / "fused.ssair")


@pytest.mark.parametrize("argv, want", [
    (["gradcheck", FUSED_FILE, "--entry", "inner", "--trials", "3", "--seed", "7"],
     '{"trials":3,"skipped":0,"max_tape_dev":0.0,"max_fd_dev":6.555301157175061e-11,'
     '"tape_tol":1e-12,"fd_tol":1e-05,"pass":true}\n'),
    (["gradcheck", "ABS", "--entry", "absval", "--trials", "4", "--seed", "7"],
     '{"trials":4,"skipped":0,"max_tape_dev":0.0,"max_fd_dev":2.8755664515384365e-11,'
     '"tape_tol":1e-12,"fd_tol":1e-05,"pass":true}\n'),
], ids=["fused_inner", "absval"])
def test_gradcheck_stdout_is_pinned(argv, want, abs_file, capsys):
    # the inputs gradcheck samples, and so every deviation, are exact
    argv = [abs_file if a == "ABS" else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_gradcheck_skips_a_trial_with_no_stable_input(tmp_path, capsys):
    # the only compare ties at every input, so no sample is margin-stable
    p = tmp_path / "tie.ssair"
    p.write_text("""
func @tie(%x: f64) -> f64 {
^entry:
  %c = lt %x, %x
  %r = select %c, %x, %x
  ret %r
}
""")
    assert main(["gradcheck", str(p), "--entry", "tie", "--trials", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == "note: no margin-stable input found, trial skipped\n" * 3
    rep = json.loads(out)
    assert (rep["trials"], rep["skipped"], rep["pass"]) == (0, 3, False)


def test_gradcheck_bool_parameter(tmp_path, capsys):
    p = tmp_path / "b.ssair"
    p.write_text("""
func @b(%x: f64, %c: bool) -> f64 {
^entry:
  %r = select %c, %x, %x
  ret %r
}
""")
    assert main(["gradcheck", str(p), "--entry", "b", "--trials", "5"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["pass"] is True
    assert "Traceback" not in err


def test_gradcheck_zero_trials_is_usage_error(abs_file):
    assert main(["gradcheck", abs_file, "--entry", "absval",
                 "--trials", "0"]) == 2


def test_gradcheck_corrupted_rule_fails(tmp_path, capsys):
    # fault injection: swap the pullback's cotangents in the adjoint
    # source; augment finds the poisoned @mul__pb already cached, so
    # the cross-check must flag the disagreement
    from ssagrad import augment
    from ssagrad.ir import Ret

    m = parse_ir(MUL_SRC)
    augment(m, "mul")
    pb = m.get("mul__pb")
    for b in pb.blocks:
        if isinstance(b.term, Ret) and len(b.term.values) == 2:
            b.term.values = (b.term.values[1], b.term.values[0])
    p = tmp_path / "poisoned.ssair"
    p.write_text(print_ir(m))

    rc = main(["gradcheck", str(p), "--entry", "mul",
               "--trials", "3", "--seed", "2"])
    assert rc == 1
    out, _ = capsys.readouterr()
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["max_tape_dev"] > 1e-12


def test_train_dan_epochs_zero(tmp_path, capsys):
    out_file = tmp_path / "metrics.jsonl"
    rc = main(["train-dan", "--config", '{"epochs":0}',
               "--out", str(out_file)])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert json.loads(out) == {"epochs_run": 0, "final": None}
    assert out_file.read_text() == ""


def test_train_dan_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "lambda": 0.0,
                               "n_samples": 64, "batch_size": 16}))
    out_file = tmp_path / "metrics.jsonl"
    rc = main(["train-dan", "--config", str(cfg), "--out", str(out_file)])
    assert rc == 0
    out, _ = capsys.readouterr()
    summary = json.loads(out)
    assert summary["epochs_run"] == 1
    lines = out_file.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == summary["final"]


def test_train_dan_unknown_key(capsys):
    assert main(["train-dan", "--config", '{"momentum":0.9}']) == 2


def test_usage_errors(mul_file):
    assert main(["run", mul_file, "--entry", "mul", "--args", "[3]"]) == 2
    assert main(["run", mul_file, "--entry", "ghost", "--args", "[3,2]"]) == 2
    assert main(["run", mul_file, "--entry", "mul", "--args", "oops"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_wrong_arg_type(mul_file):
    assert main(["run", mul_file, "--entry", "mul", "--args", "[3,true]"]) == 2
    assert main(["run", mul_file, "--entry", "mul",
                 "--args", '[3,{"shape":[1],"data":[1]}]']) == 2


def test_domain_failure_is_exit_one(tmp_path):
    p = tmp_path / "l.ssair"
    p.write_text("""
func @f(%x: f64) -> f64 {
^entry:
  %l = log %x
  ret %l
}
""")
    assert main(["run", str(p), "--entry", "f", "--args", "[-1]"]) == 1


def test_stdout_deterministic(abs_file, tmp_path, capsys):
    def capture(argv):
        assert main(argv) in (0, 1)
        return capsys.readouterr().out

    for argv in (
        ["run", abs_file, "--entry", "absval", "--args", "[-2]"],
        ["grad", abs_file, "--entry", "absval", "--args", "[-2]"],
        ["batch", abs_file, "--entry", "absval", "-B", "3", "--args", "[-1,2,-3]"],
        ["gradcheck", abs_file, "--entry", "absval", "--trials", "4", "--seed", "7"],
        ["print", abs_file],
        ["train-dan", "--config", '{"epochs":1,"n_samples":64,"batch_size":16}',
         "--out", str(tmp_path / "m.jsonl")],
    ):
        runs = {capture(argv) for _ in range(3)}
        assert len(runs) == 1, argv


MALFORMED = {
    "ill_typed_op": ("""
func @f(%x: f64) -> f64 {
^entry:
  %y = matmul %x, %x
  ret %y
}
""", "matmul on f64, f64"),
    "undefined_value": ("""
func @f(%x: f64) -> f64 {
^entry:
  %y = mul %x, %z
  ret %y
}
""", "use of undefined value %z"),
    "use_not_dominated": ("""
func @f(%x: f64) -> f64 {
^entry:
  %z = const f64 0.0
  %c = gt %x, %z
  br %c, ^a(), ^b()
^a:
  %y = mul %x, %x
  jmp ^join()
^b:
  jmp ^join()
^join:
  ret %y
}
""", "%y does not dominate its use"),
    "missing_terminator": ("""
func @f(%x: f64) -> f64 {
^entry:
  %y = mul %x, %x
}
""", "expected a terminator"),
    "unknown_callee": ("""
func @f(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @nowhere}
  ret %y
}
""", "unknown function @nowhere"),
}

COMMANDS = {
    "run": ["--args", "[1.0]"],
    "grad": ["--args", "[1.0]"],
    "batch": ["-B", "2", "--args", "[1.0, 2.0]"],
    "gradcheck": ["--trials", "2"],
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_module_is_a_diagnostic(case, command, tmp_path, capsys):
    text, message = MALFORMED[case]
    p = tmp_path / f"{case}.ssair"
    p.write_text(text)
    assert main([command, str(p), "--entry", "f", *COMMANDS[command]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config, message", [
    ('{"batch_size":0}', "batch_size must be between 1 and n_samples (320), got 0"),
    ('{"batch_size":1000,"epochs":1}', "batch_size must be between 1 and n_samples (320), got 1000"),
    ('{"epochs":"x"}', "config key 'epochs' must be an integer, got 'x'"),
    ('{"epochs":true}', "config key 'epochs' must be an integer, got True"),
    ('{"trunk_sizes":[16]}', "config key 'trunk_sizes' must be a list of at least two positive integers"),
    ('{"head_sizes":[8,0]}', "config key 'head_sizes' must be a list of at least two positive integers"),
    ('{"dim":8}', "trunk_sizes must start at dim (8), got [16, 8]"),
    ('{"head_sizes":[4,1]}', "head_sizes must start at the last trunk size (8), got [4, 1]"),
    ('{"head_sizes":[8,2]}', "head_sizes must end at 1, got [8, 2]"),
    ('{"lr":"a"}', "config key 'lr' must be a number, got 'a'"),
    # one sample leaves the domain probe an empty fold to score on
    ('{"n_samples":1,"batch_size":1}', "n_samples must be at least 2, got 1"),
    ('{"n_samples":0}', "n_samples must be at least 2, got 0"),
    ('{"epochs":-1}', "epochs must be at least 0, got -1"),
], ids=["batch_size_0", "batch_size_over_n_samples", "epochs_str", "epochs_bool",
        "trunk_one_size", "head_zero_size", "dim_mismatch", "head_trunk_mismatch",
        "head_not_one", "lr_str", "n_samples_1", "n_samples_0", "epochs_negative"])
def test_train_dan_rejects_configs_it_cannot_run(config, message, tmp_path, capsys):
    out_file = tmp_path / "metrics.jsonl"
    assert main(["train-dan", "--config", config, "--out", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out_file.exists()


TRACE_SRC = """
func @t(%x: f64) -> tape {
^entry:
  %e = tape_new
  %p = tape_push %e, %x
  ret %p
}

func @u(%s: tape, %x: f64) -> f64 {
^entry:
  %p = tape_push %s, %x
  %y = mul %x, %x
  ret %y
}
"""


@pytest.mark.parametrize("argv, message", [
    (["run", "--entry", "t", "--args", "[1.0]"], "@t returns a tape"),
    (["grad", "--entry", "t", "--args", "[1.0]"], "@t returns a tape"),
    (["batch", "--entry", "t", "-B", "2", "--args", "[1.0, 2.0]"], "@t returns a tape"),
    (["gradcheck", "--entry", "t", "--trials", "2"], "@t returns a tape"),
    (["gradcheck", "--entry", "u", "--trials", "2"], "@u takes a tape"),
], ids=["run", "grad", "batch", "gradcheck", "gradcheck_param"])
def test_trace_entry_is_a_usage_error(argv, message, tmp_path, capsys):
    p = tmp_path / "trace.ssair"
    p.write_text(TRACE_SRC)
    assert main([argv[0], str(p), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}, which has no JSON form\n"


def test_run_unbounded_recursion_is_exit_one(tmp_path, capsys):
    p = tmp_path / "self.ssair"
    p.write_text("""
func @f(%x: f64) -> f64 {
^entry:
  %y = call %x {fn = @f}
  ret %y
}
""")
    assert main(["run", str(p), "--entry", "f", "--args", "[1.0]"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "@f ^entry instr 0: maximum recursion depth exceeded\n"
