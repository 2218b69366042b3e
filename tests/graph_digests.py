"""SHA-256 digests of the full-width training and describe values.

Run as a script (one BLAS thread, so the GEMMs sum in a fixed order), it
prints a JSON object of digests: the loss and every parameter gradient of
one `triplet_loss` on fixed float32 bags of 32 patches, `_batch_gradients`
over four triplets that share bags at one and at two worker threads and
over four that share none, `describe` of the first triplet's anchor
stack, and `validate` over the four sharing triplets.
`test_graph_memory.py` compares them with the digests recorded before the
autograd graph stopped keeping unread activations.
"""

import hashlib
import json

import numpy as np

from bagdesc.data import BagTriplet, PatchBag
from bagdesc.matching import MatchConfig
from bagdesc.net import DescriptorNet, describe, init_net
from bagdesc.train import _batch_gradients, triplet_loss, validate

BAG_SIZE = 32
# The sharpness keeps the sigmoids of init_net(0)'s distances unsaturated,
# so every gradient carries many significant bits.
CFG = MatchConfig(tau=0.9, beta=8.0)


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def triplets(count: int, stride: int = 1) -> list[BagTriplet]:
    """Triplet k is (s k, 0), (s k, 1), (s k + 1, 0) for stride s. At stride 1
    it shares its negative with triplet k + 1's anchor; at stride 2 no two
    triplets share a bag. An (object, view) names one bag, as in a dataset;
    each slot still draws pixels, so later bags keep the values they were
    recorded with."""
    rng = np.random.default_rng(2016)
    bags: dict = {}

    def bag(obj: int, view: int) -> PatchBag:
        pixels = rng.uniform(0.0, 1.0, (BAG_SIZE, 3, 32, 32)).astype(np.float32)
        return bags.setdefault((obj, view), PatchBag(obj, view, pixels))

    return [BagTriplet(bag(stride * k, 0), bag(stride * k, 1), bag(stride * k + 1, 0)) for k in range(count)]


def digests() -> dict[str, str]:
    net = init_net(0)
    batch = triplets(4)
    loss, grads = triplet_loss(net, batch[0], CFG)
    out = {"loss": _sha(loss)}
    out.update({f"grad.{name}": _sha(grads[name]) for name in DescriptorNet.PARAM_NAMES})

    def batch_digest(batch, threads):
        loss, grads = _batch_gradients(net, batch, CFG, threads)
        arrays = [loss] + [grads[name] for name in DescriptorNet.PARAM_NAMES]
        return _sha(np.concatenate([np.ravel(a) for a in arrays]))

    for threads in (1, 2):
        out[f"batch.threads{threads}"] = batch_digest(batch, threads)
    out["batch.unshared"] = batch_digest(triplets(4, stride=2), 2)
    out["describe"] = _sha(describe(net, batch[0].anchor.pixels))
    out["validate"] = _sha(validate(net, batch, CFG))
    return out


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
