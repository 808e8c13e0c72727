"""Model JSON reading and writing.

Schemas:

    {"type": "two_layer", "activation": {"name": ..., "params": {...}},
     "units": [[a_k, [b_k...], c_k], ...]}

    {"type": "resnet", "activation": {...}, "c": ...,
     "V": [[...]], "alpha": [...],
     "blocks": [{"W": [[...]], "U": [[...]]}, ...]}

A custom activation is written as the JSON object it was built from.
Numbers survive a round trip bit-exactly (shortest-repr JSON floats).

A file is json.dumps(model_to_dict(model)) plus a newline: one line, no
indent, so json stays on its C encoder (an indent switches it to the
pure-Python one, two to three times slower on the thousands of numbers of a
rewritten net). An empty "units" list has no b_k to give the input
dimension: it loads as a width-0 net on d = 0.
"""

import json

import numpy as np

from .activations import Activation, custom_activation, make_activation
from .errors import ParseError, load_json
from .resnet import ResNet
from .twolayer import TwoLayerNet


def activation_to_dict(act: Activation) -> dict:
    if act.spec is not None:
        return act.spec
    return {"name": act.name, "params": {k: float(v) for k, v in act.params.items()}}


def activation_from_dict(obj) -> Activation:
    if isinstance(obj, dict) and "f" in obj:
        return custom_activation(obj)
    if not isinstance(obj, dict) or "name" not in obj:
        raise ParseError("activation must be an object with a 'name'")
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ParseError("activation params must be an object")
    return make_activation(str(obj["name"]), **params)


def model_to_dict(model) -> dict:
    if isinstance(model, TwoLayerNet):
        units = [[a, b, c] for a, b, c in zip(model.a.tolist(), model.b.tolist(), model.c.tolist())]
        return {
            "type": "two_layer",
            "activation": activation_to_dict(model.activation),
            "units": units,
        }
    if isinstance(model, ResNet):
        return {
            "type": "resnet",
            "activation": activation_to_dict(model.activation),
            "c": float(model.c),
            "V": model.v.tolist(),
            "alpha": model.alpha.tolist(),
            "blocks": [{"W": w.tolist(), "U": u.tolist()} for w, u in zip(model.ws, model.us)],
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_dict(obj):
    if not isinstance(obj, dict):
        raise ParseError("model must be a JSON object")
    kind = obj.get("type")
    act = activation_from_dict(obj.get("activation"))
    try:
        if kind == "two_layer":
            units = obj["units"]
            a = np.array([u[0] for u in units], float)
            # an empty list has no row to give d: it loads as width 0 on d = 0
            b = np.array([u[1] for u in units], float) if units else np.zeros((0, 0))
            if b.ndim != 2:
                raise ParseError(f"malformed {kind} model: each b_k must be a list of numbers")
            c = np.array([u[2] for u in units], float)
            return TwoLayerNet(a, b, c, act)
        if kind == "resnet":
            blocks = obj["blocks"]
            return ResNet(
                np.array(obj["V"], float),
                tuple(np.array(blk["W"], float) for blk in blocks),
                tuple(np.array(blk["U"], float) for blk in blocks),
                np.array(obj["alpha"], float),
                act,
                float(obj["c"]),
            )
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {kind} model: {exc}") from None
    raise ParseError(f"unknown model type {kind!r}")


def save_model(model, path) -> None:
    # the whole text first: a model that cannot be serialized leaves path as it was
    text = json.dumps(model_to_dict(model)) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path):
    return model_from_dict(load_json(path, "model"))
