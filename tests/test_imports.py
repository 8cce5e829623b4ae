"""Every name a module under src/ucamimo imports is used in that module, the public surface is
pinned, one function holds the number rule, one function the rate sum, and no module inverts a
matrix or takes an eigendecomposition or a QR factorisation."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import ucamimo

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ucamimo"


def unused_imports(source: str) -> set[str]:
    """Names bound by the module's imports that no expression reads; `__future__` imports are skipped."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_detector_finds_unused_names():
    source = "from __future__ import annotations\nimport os, os.path as osp\nimport numpy as np\nfrom x import a, b\nnp.ones(a)\n"
    assert unused_imports(source) == {"os", "osp", "b"}


# __init__.py imports only to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == set()


# A field of a str.format or %-template that prints 9 significant digits: "{:.9g}", "%.9g"
NINE_DIGIT_TEMPLATE = re.compile(r"\{[^{}]*:[^{}]*9g\}|%[-+ #0]*\d*\.?\d*9g")


def nine_digit_specs(source: str) -> list[str]:
    """The enclosing function of every format spec that holds 9g, one entry per spec.

    The specs are those of f-string fields, the second argument of `format()`, and the
    fields of str.format and %-templates; a spec outside any function is in "<module>".
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            if "9g" in ast.unparse(node.format_spec):
                found.append(function)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "format":
            spec = node.args[1] if len(node.args) > 1 else None
            if isinstance(spec, ast.Constant) and "9g" in str(spec.value):
                found.append(function)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if NINE_DIGIT_TEMPLATE.search(node.value):
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_finds_nine_digit_specs():
    source = (
        "A = '%.9g' % 1.0\n"
        "def f(x, w):\n"
        "    return f'{x:.9g} {x:{w}.9g} {x:g} {x!r}', format(x, '.9g'), '{0:>12.9g}'.format(x), '9g'\n"
        "def g(x):\n"
        "    'Printed with .9g.'\n"
        "    return [f'{v:.3f}' for v in x]\n"
    )
    assert nine_digit_specs(source) == ["<module>", "f", "f", "f", "f"]


def test_one_function_holds_the_number_rule():
    # every printed number goes through sim.table_texts, so changing the rule is one edit
    found = {path.stem: nine_digit_specs(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert {module: specs for module, specs in found.items() if specs} == {"sim": ["table_texts"]}


def rate_sum_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, call) for each log1p call and each log2 or log of 1 + x, in source order.

    A sum written as log2(1 + x) rounds x away where it is far below one;
    the package keeps one `log1p` rate sum instead.
    """
    found = []

    def one_plus(arg):
        return isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add) and any(
            isinstance(side, ast.Constant) and side.value == 1 for side in (arg.left, arg.right))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name == "log1p" or (name in ("log2", "log") and node.args and one_plus(node.args[0])):
                found.append((function, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_finds_rate_sums():
    source = (
        "def f(x):\n"
        "    return np.log1p(x), math.log2(1.0 + x), np.log(x + 1), np.log2(2.0 + x), np.log2(x)\n"
        "\n"
        "def g(x):\n"
        "    'A rate log2(1 + x).'\n"
        "    return math.log1p(x)\n"
    )
    assert rate_sum_calls(source) == [
        ("f", "np.log1p(x)"), ("f", "math.log2(1.0 + x)"), ("f", "np.log(x + 1)"), ("g", "math.log1p(x)")]


def test_one_function_holds_the_rate_sum():
    # capacity, ZF and ZF-SIC all sum log2(1 + snr) through design._rate_sum
    found = {path.stem: rate_sum_calls(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert {module: calls for module, calls in found.items() if calls} == {
        "design": [("_rate_sum", "np.log1p(snr)")],
    }


# The factorisations the package replaced: the normal equations' inverse squares the condition
# number, an eigh of H^H H recomputes a basis that the cell's one (sigma, V) already gives, and
# the QR of [G; I] has the Cholesky diagonal of I + G^H G as its |r_kk|.  Cholesky and SVD are
# the package's only factorisations
REPLACED_LINALG = {"inv", "eigh", "qr"}


def replaced_linalg_uses(source: str) -> list[str]:
    """Each `linalg.inv`, `linalg.eigh` or `linalg.qr` that the source reads as an attribute or imports by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in REPLACED_LINALG:
            if ast.unparse(node.value).split(".")[-1] == "linalg":
                found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name in REPLACED_LINALG]
    return found


def test_detector_finds_replaced_linalg():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigh, svd\n"
        "from scipy import linalg\n"
        "def f(a):\n"
        "    'Not np.linalg.inv(a).'\n"
        "    g = np.linalg.inv\n"
        "    return np.linalg.eigh(a), linalg.inv(a), np.linalg.svd(a), a.inv, np.linalg.pinv(a)\n"
        "def g(a):\n"
        "    return np.linalg.qr(a, mode='r'), np.linalg.cholesky(a), a.qr\n"
    )
    assert sorted(replaced_linalg_uses(source)) == [
        "linalg.inv", "np.linalg.eigh", "np.linalg.inv", "np.linalg.qr", "numpy.linalg.eigh"]


def test_no_inverse_or_eigendecomposition_in_the_package():
    found = {path.name: replaced_linalg_uses(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert {name: uses for name, uses in found.items() if uses} == {}


# Every public name of the package, and every public function and class that
# a layer module defines.  The benchmark's tracer wraps exactly those
# functions, so adding or removing one is an edit to this table.
PACKAGE_NAMES = {
    "APPROXIMATE", "EXACT_DISTANCE",
    "ArrayConfig", "Misalignment", "ModelValidityError", "rotation_matrix",
    "ChannelMatrix", "SvdTriple", "build_channel", "build_channels", "circulant_factor",
    "closed_form_svd", "dft_matrix", "numerical_svd",
    "singular_values",
    "DesignResult", "capacity", "radii_from_beta", "search_beta_opt", "water_fill",
    "Codebook", "RateReport", "approx_power_allocation",
    "build_codebook", "codebook_best_rates", "codebook_rates_many", "nulling_rates", "precoded_rate",
    "precoded_rates", "precoder_from_angles", "precoder_matrices",
    "ResultRow", "TrialConfig", "draw_misalignment", "run_codebook_bit_sweep", "run_rate_sweep",
}
LAYER_NAMES = {
    "geometry": {"ArrayConfig", "Misalignment", "ModelValidityError", "attitude_matrix",
                 "distance_matrix_exact", "rotation_matrix", "rx_displacement",
                 "rx_ring_harmonics", "tx_displacement"},
    "channel": {"ChannelMatrix", "SvdTriple", "aligned_first_column", "build_channel",
                "build_channels", "circulant_factor", "closed_form_svd", "dft_matrix",
                "numerical_svd"},
    "spectrum": {"leading_dominance_bound", "singular_values", "singular_values_many"},
    "design": {"DesignResult", "capacity", "capacity_curve", "condition_numbers",
               "power_from_db", "radii_from_beta", "search_beta_opt", "water_fill"},
    "transceiver": {"Codebook", "RateReport",
                    "approx_power_allocation", "build_codebook", "codebook_best_rates", "codebook_rates_many",
                    "nulling_rates", "precoded_rate", "precoded_rates", "precoder_from_angles",
                    "precoder_matrices"},
    "sim": {"ResultRow", "TrialConfig", "csv_text", "draw_misalignment", "rows_to_csv",
            "run_codebook_bit_sweep", "run_rate_sweep", "table_texts", "trial_rng", "write_csv",
            "write_text"},
}


def test_package_names_are_pinned():
    # submodules become package attributes once imported, so they are left out
    names = {name for name, obj in vars(ucamimo).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert names == PACKAGE_NAMES


@pytest.mark.parametrize("layer", sorted(LAYER_NAMES))
def test_layer_functions_and_classes_are_pinned(layer):
    module = importlib.import_module(f"ucamimo.{layer}")
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined == LAYER_NAMES[layer]


# The parameters of every function in LAYER_NAMES, as `inspect` prints a
# signature without annotations: names, kinds (`*` before keyword-only ones)
# and defaults.  Adding or removing a knob is an edit to this table.
SIGNATURES = {
    "channel.aligned_first_column": "(cfg, theta_o)",
    "channel.build_channel": "(cfg, mis, model='approximate')",
    "channel.build_channels": "(cfg, mis, model='approximate')",
    "channel.circulant_factor": "(cfg, theta_o)",
    "channel.closed_form_svd": "(cfg, mis)",
    "channel.dft_matrix": "(n)",
    "channel.numerical_svd": "(matrix)",
    "design.capacity": "(sigmas, p_total, noise)",
    "design.capacity_curve": "(n_s, theta_o, snr_db, beta_max, resolution)",
    "design.condition_numbers": "(sigmas)",
    "design.power_from_db": "(snr_db)",
    "design.radii_from_beta": "(beta, wavelength, distance)",
    "design.search_beta_opt": "(n_s, theta_o, snr_db, beta_max=14.0, resolution=0.01, *, wavelength=None, distance=None)",
    "design.water_fill": "(sigmas, p_total)",
    "geometry.attitude_matrix": "(mis)",
    "geometry.distance_matrix_exact": "(cfg, mis)",
    "geometry.rotation_matrix": "(plane, angle)",
    "geometry.rx_displacement": "(cfg, mis)",
    "geometry.rx_ring_harmonics": "(cfg, mis)",
    "geometry.tx_displacement": "(cfg, theta_cs, phi_cs)",
    "sim.csv_text": "(header, rows)",
    "sim.draw_misalignment": "(rng, trial_cfg, n_antennas)",
    "sim.rows_to_csv": "(rows)",
    "sim.run_codebook_bit_sweep": "(trial_cfg, bit_grid=((1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (7, 3), "
                                  "(3, 1), (3, 2), (3, 4), (3, 5)), jobs=1)",
    "sim.run_rate_sweep": "(trial_cfg, jobs=1)",
    "sim.table_texts": "(rows)",
    "sim.trial_rng": "(seed, trial)",
    "sim.write_csv": "(rows, path)",
    "sim.write_text": "(text, path)",
    "spectrum.leading_dominance_bound": "(n_s, theta_o)",
    "spectrum.singular_values": "(n_s, beta, theta_o)",
    "spectrum.singular_values_many": "(n_s, betas, theta_o)",
    "transceiver.approx_power_allocation": "(cfg, snr_db)",
    "transceiver.build_codebook": "(l1_bits, l2_bits, quantization='sine')",
    "transceiver.codebook_best_rates": "(cfg, h, sigma, v, codebooks, powers)",
    "transceiver.codebook_rates_many": "(cfg, h, cb, powers)",
    "transceiver.nulling_rates": "(sigma, v, p_total)",
    "transceiver.precoded_rate": "(h, precoder, powers)",
    "transceiver.precoded_rates": "(h, f, powers)",
    "transceiver.precoder_from_angles": "(cfg, theta_cs, phi_cs)",
    "transceiver.precoder_matrices": "(cfg, theta_cs, phi_cs)",
}


def test_public_signatures_are_pinned():
    signatures = {}
    for layer, names in LAYER_NAMES.items():
        module = importlib.import_module(f"ucamimo.{layer}")
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                sig = inspect.signature(fn)
                params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
                signatures[f"{layer}.{name}"] = str(sig.replace(parameters=params, return_annotation=sig.empty))
    assert signatures == SIGNATURES
