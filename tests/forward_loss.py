"""Forward-only triplet loss for the numeric side of gradient checks.

`bagdesc.train.triplet_loss` always runs a backward pass; a central
difference needs only the loss, so it calls this instead: one stacked
`forward_bag`, then `GramPair`, then `ratio_loss`. Over a net from
`init_net` or `load_net`, whose leaves take no gradient, that forward
records no graph.
"""

import numpy as np

from bagdesc.matching import GramPair, soft_match_score
from bagdesc.net import forward_bag
from bagdesc.train import ratio_loss


def forward_triplet_loss(net, triplet, cfg):
    n = triplet.anchor.n
    bags = (triplet.anchor, triplet.positive, triplet.negative)
    stacked = np.concatenate([bag.pixels for bag in bags])
    rows = forward_bag(net, stacked).data
    score_pos = soft_match_score(GramPair(rows[:n], rows[n : 2 * n]), cfg)
    score_neg = soft_match_score(GramPair(rows[:n], rows[2 * n :]), cfg)
    return ratio_loss(score_pos, score_neg)
