"""Unary code families with uniform Hamming geometry, plus a one-pass
integer-trained corner-classification network built on them.

The public names below are imported from their home module on first use
(PEP 562), so a process that needs one module imports only that one.
"""

from importlib import import_module

# public name -> the module it lives in
_HOME = {
    name: module
    for module, names in (
        ("bitvec", "BitWord binary_encode gray_decode gray_encode "
                   "hamming_distance hamming_weight"),
        ("cc4", "CC4Network TrainingSample generalization_region "
                "hidden_activations infer load_network save_network train"),
        ("codes", "DecodeError decode_basic decode_fixed decode_generalized "
                  "decode_one_hot encode_basic encode_fixed encode_generalized "
                  "encode_one_hot min_pairwise_distance one_hot_to_thermometer"),
        ("dataset", "Dataset EvalReport QuantizationSpec evaluate load_dataset "
                    "quantize_encode sweep_radius"),
    )
    for name in names.split()
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
