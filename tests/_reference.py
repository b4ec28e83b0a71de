"""Frozen reference cross-validation table for metric-arithmetic checks.

Six published model configurations, each with four per-fold rows of
(sensitivity %, specificity %, Macc %) and the cross-fold Macc summary
(mean, sample std) they were reported with. The arithmetic in
pcgnet.training must reproduce every mean within +/-0.01 and every std at
its displayed precision.
"""

REFERENCE_ROWS = {
    "baseline": {
        "sens": (63.76, 64.07, 61.06, 67.33),
        "spec": (81.11, 94.15, 96.57, 92.39),
        "macc": (72.44, 79.11, 78.82, 79.86),
        "crossfold_macc": (77.56, 3.4),
    },
    "tconv-nonlearn": {
        "sens": (89.30, 89.39, 89.80, 86.47),
        "spec": (56.26, 86.54, 90.48, 86.47),
        "macc": (72.78, 87.97, 90.14, 86.47),
        "crossfold_macc": (84.34, 7.85),
    },
    "tconv-fir": {
        "sens": (91.57, 86.29, 88.14, 84.87),
        "spec": (57.14, 91.31, 93.15, 91.98),
        "macc": (74.36, 88.81, 90.64, 88.42),
        "crossfold_macc": (85.55, 7.5),
    },
    "lp-tconv-fir": {
        "sens": (88.45, 93.81, 91.72, 89.64),
        "spec": (65.65, 88.38, 90.97, 88.14),
        "macc": (77.05, 91.10, 91.35, 88.89),
        "crossfold_macc": (87.10, 6.79),
    },
    "zp-tconv-fir": {
        "sens": (90.73, 89.22, 89.97, 88.14),
        "spec": (56.65, 90.31, 91.81, 86.88),
        "macc": (73.69, 89.77, 90.89, 87.51),
        "crossfold_macc": (85.47, 8.0),
    },
    "lp-tconv-rand": {
        "sens": (73.23, 92.40, 86.13, 84.29),
        "spec": (79.84, 86.13, 93.98, 87.22),
        "macc": (76.53, 89.26, 90.06, 85.76),
        "crossfold_macc": (85.40, 6.2),
    },
}


def std_tolerance(displayed: float) -> float:
    """Half an ulp of the displayed precision (8.0 was displayed as '8')."""
    text = repr(displayed)
    decimals = len(text.split(".")[1]) if "." in text else 0
    if text.endswith(".0"):
        decimals = 0
    return 0.5 * 10.0 ** (-decimals) + 1e-9


def branch_states(net):
    """Copies of each branch's (stage-1, stage-2) running statistics, as
    BatchNormState pairs for branch_loop_forward."""
    import pcgnet.autodiff as ad

    out = []
    for br in net.branches:
        pair = []
        for mean, var in ((br.bn1_mean, br.bn1_var), (br.bn2_mean, br.bn2_var)):
            st = ad.BatchNormState(mean.size)
            st.mean[...] = mean
            st.var[...] = var
            pair.append(st)
        out.append(tuple(pair))
    return out


def branch_loop_forward(net, batch, train=False, rng=None, states=None):
    """Network.forward rebuilt as one op chain per branch, the way the
    grouped branch stage is defined: slice -> conv -> add_channel_bias ->
    batch-norm -> relu -> dropout -> pool, twice, for each band in turn.
    Dropout draws each stage's keep-mask over all branches in one draw of
    random bytes (byte >= 256*rate), stage 1 first, as the fused stage
    node does, and multiplies branch i by its slice.
    Each branch's parameters are slices of the stage tensors, so their
    gradients land on the stage parameters. The zero-phase front-end's
    reverse pass is likewise one conv per band.

    `states` is a list of (stage-1, stage-2) BatchNormState pairs, one per
    branch (see branch_states), so the network's own running statistics
    stay untouched.
    """
    import numpy as np

    import pcgnet.autodiff as ad

    cfg = net.config
    n = batch.shape[0]
    x = ad.tensor(batch)
    if net.frontend is not None:
        kern = net.frontend.materialized_kernel()
        x = ad.conv1d(x, kern, padding="same")
        if net.frontend.variant == "zero_phase":
            parts = []
            for band in range(cfg.bands):
                zb = ad.slice_channels(x, band, band + 1)
                kb = ad.slice_axis(kern, 0, band, band + 1)
                parts.append(ad.flip_time(ad.conv1d(ad.flip_time(zb), kb, padding="same")))
            x = ad.concat(parts, axis=1)
    feats = []
    scaled_keep = {}     # stage index -> keep / (1 - rate) over [n, bands*c, L]
    for i in range(cfg.bands):
        h = ad.slice_channels(x, i, i + 1)
        for s, (stage, state) in enumerate(((net.stage1, states[i][0]),
                                            (net.stage2, states[i][1]))):
            c = stage.b.data.size // cfg.bands
            w, b, gamma, beta = (ad.slice_axis(p, 0, i * c, (i + 1) * c)
                                 for p in (stage.w, stage.b, stage.gamma, stage.beta))
            h = ad.conv1d(h, w, padding="valid")
            h = ad.add_channel_bias(h, b)
            h = ad.batchnorm1d(h, gamma, beta, state, train)
            h = ad.relu(h)
            if train and cfg.dropout > 0.0:
                if s not in scaled_keep:
                    shape = (n, cfg.bands * c, h.data.shape[-1])
                    keep = np.frombuffer(rng.bytes(int(np.prod(shape))), np.uint8) \
                        .reshape(shape) >= 256 * cfg.dropout
                    scaled_keep[s] = keep / (1.0 - cfg.dropout)
                h = ad.mul(h, ad.tensor(scaled_keep[s][:, i * c:(i + 1) * c]))
            h = ad.maxpool1d(h, cfg.pool)
        feats.append(ad.reshape(h, (n, -1)))
    z = ad.relu(ad.dense(ad.concat(feats, axis=1), net.head_w1, net.head_b1))
    out = ad.sigmoid(ad.dense(z, net.head_w2, net.head_b2))
    return ad.reshape(out, (n,))
