"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (explicit loops, no im2col, no shared
code with the package) so a bug in the fast paths cannot hide in its own
oracle.
"""

import itertools

import numpy as np

FAST_CIRCLE = (
    (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)  # (dx, dy)


def conv2d_sixloop(x, w, b, stride):
    """Literal six-nested-loop valid cross-correlation."""
    cout, cin, kh, kw = w.shape
    _, h, wd = x.shape
    ho = (h - kh) // stride + 1
    wo = (wd - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    for oc in range(cout):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for ic in range(cin):
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += x[ic, oy * stride + ky, ox * stride + kx] * w[oc, ic, ky, kx]
                out[oc, oy, ox] = acc + b[oc]
    return out


def conv2d_loop(x, w, b, stride):
    """Naive per-output-pixel convolution (window product sum)."""
    cout, cin, kh, kw = w.shape
    _, h, wd = x.shape
    ho = (h - kh) // stride + 1
    wo = (wd - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    for oc in range(cout):
        for oy in range(ho):
            for ox in range(wo):
                window = x[:, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
                out[oc, oy, ox] = float(np.sum(window * w[oc])) + b[oc]
    return out


def conv2d_backward_loop(x, w, grad, stride):
    """Input, weight and bias gradients of conv2d_loop for upstream `grad`."""
    cout, cin, kh, kw = w.shape
    _, ho, wo = grad.shape
    dx = np.zeros(x.shape)
    dw = np.zeros(w.shape)
    db = np.zeros(cout)
    for oc in range(cout):
        for oy in range(ho):
            for ox in range(wo):
                g = grad[oc, oy, ox]
                rows = slice(oy * stride, oy * stride + kh)
                cols = slice(ox * stride, ox * stride + kw)
                dx[:, rows, cols] += g * w[oc]
                dw[oc] += g * x[:, rows, cols]
                db[oc] += g
    return dx, dw, db


def maxpool2x2_backward_loop(x, grad):
    """Routes each window's gradient to its np.argmax position (row-major)."""
    c, h, w = x.shape
    dx = np.zeros(x.shape)
    for ch in range(c):
        for oy in range(h // 2):
            for ox in range(w // 2):
                k = int(np.argmax(x[ch, 2 * oy : 2 * oy + 2, 2 * ox : 2 * ox + 2]))
                dx[ch, 2 * oy + k // 2, 2 * ox + k % 2] = grad[ch, oy, ox]
    return dx


def maxpool2x2_loop(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for ch in range(c):
        for oy in range(h // 2):
            for ox in range(w // 2):
                out[ch, oy, ox] = np.max(x[ch, 2 * oy : 2 * oy + 2, 2 * ox : 2 * ox + 2])
    return out


def affine_loop(x, w, b):
    dout, din = w.shape
    out = np.zeros(dout)
    for i in range(dout):
        acc = 0.0
        for j in range(din):
            acc += w[i, j] * x[j]
        out[i] = acc + b[i]
    return out


def pairwise_sqdist_loop(a, b):
    n = a.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = a[i] - b[j]
            out[i, j] = float(np.dot(diff, diff))
    return out


def max_matching_bruteforce(eligible):
    """Exact maximum one-to-one matching size by exhaustive search (n <= 7)."""
    n = eligible.shape[0]
    best = 0
    for perm in itertools.permutations(range(n)):
        size = sum(1 for i, j in enumerate(perm) if eligible[i, j])
        best = max(best, size)
    return best


def fast_reference(gray, threshold, max_keypoints):
    """Exhaustive per-pixel segment test with the same scoring and NMS rules."""
    h, w = gray.shape
    score = np.full((h, w), -np.inf)
    for y in range(3, h - 3):
        for x in range(3, w - 3):
            center = gray[y, x]
            ring = [gray[y + dy, x + dx] for dx, dy in FAST_CIRCLE]
            best = -np.inf
            for margins in (
                [v - (center + threshold) for v in ring],
                [(center - threshold) - v for v in ring],
            ):
                for start in range(16):
                    arc_min = min(margins[(start + k) % 16] for k in range(9))
                    if arc_min > best:
                        best = arc_min
            score[y, x] = best

    detections = []
    for y in range(3, h - 3):
        for x in range(3, w - 3):
            s = score[y, x]
            if s <= 0.0:
                continue
            keep = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    q = score[y + dy, x + dx] if 0 <= y + dy < h and 0 <= x + dx < w else -np.inf
                    earlier = dy < 0 or (dy == 0 and dx < 0)
                    if earlier and q >= s:
                        keep = False
                    if not earlier and q > s:
                        keep = False
            if keep:
                detections.append((x, y, float(s)))
    detections.sort(key=lambda d: (-d[2], d[1], d[0]))
    return detections[:max_keypoints]


def bilinear_sample_loop(img, xq, yq):
    """Per-query, per-channel bilinear sample of [C,H,W] with edge clamping.

    Weights multiply in the order (value * (1 - fy)) * (1 - fx) and the four
    corners add left to right, so a correct fast path matches bit for bit.
    """
    c, h, w = img.shape
    out = np.zeros((c, *np.shape(xq)))
    for index in np.ndindex(*np.shape(xq)):
        x = min(max(float(xq[index]), 0.0), w - 1.0)
        y = min(max(float(yq[index]), 0.0), h - 1.0)
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        fx, fy = x - x0, y - y0
        for ch in range(c):
            out[(ch, *index)] = (
                float(img[ch, y0, x0]) * (1 - fy) * (1 - fx)
                + float(img[ch, y0, x1]) * (1 - fy) * fx
                + float(img[ch, y1, x0]) * fy * (1 - fx)
                + float(img[ch, y1, x1]) * fy * fx
            )
    return out


def downsample4_loop(pixels):
    """4x4 block means of [C,H,W], cropped to multiples of 4, summed in order.

    Each block adds the 4 values of a row left to right, then the 4 row sums
    top to bottom, then divides by 16.
    """
    c, h, w = pixels.shape
    out = np.zeros((c, h // 4, w // 4))
    for ch in range(c):
        for by in range(h // 4):
            for bx in range(w // 4):
                total = 0.0
                for dy in range(4):
                    row = 0.0
                    for dx in range(4):
                        row += float(pixels[ch, 4 * by + dy, 4 * bx + dx])
                    total += row
                out[ch, by, bx] = total / 16
    return out
