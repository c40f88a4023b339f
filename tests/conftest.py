import numpy as np


def fd_grad(fun, x, h=1e-6):
    """Central finite-difference gradient, the reference for gradient checks."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


def expression_form_triangle(step, A, x, z, N, gradient, mirror, after):
    """The similar-triangles loop in expression form, the bitwise reference
    for :func:`optdec.schedules.triangle`."""
    for k in range(N):
        alpha, A_next = step(A)
        x_tilde = (A * x + alpha * z) / A_next
        g = gradient(k, x_tilde, alpha, A_next)
        z = mirror(z, g, x_tilde, alpha, A_next)
        x = (A * x + alpha * z) / A_next
        A = A_next
        if after(k, x, z, A):
            break
    return x, z, A


def expression_form_pull_back(mu):
    """The strongly convex mirror update in expression form, the bitwise
    reference for :func:`optdec.primal._pull_back`."""
    def mirror(z, g, x_tilde, alpha, A_next):
        return z - alpha * (g - mu * (x_tilde - z)) / (1.0 + A_next * mu)
    return mirror


def expression_form_inner_prox(pen, z_k, alpha, lin, delta, budget):
    """The inner prox of ``stm_ips`` in expression form, ``grad g(z)`` built as
    ``(z - z_k) + alpha lin + alpha (2 coeff (AtA z))`` and pulled back through
    ``x~``: the rounding reference for :func:`optdec.primal._inner_prox_stm`
    and the form the ``stm_ips`` goldens were first recorded with.  Returns
    (z, gap bound, converged, AtA products, steps)."""
    from optdec.schedules import next_alpha_stm
    L_g = alpha * pen.L_h + 1.0
    products = steps = 0

    def grad_g(z):
        nonlocal products
        products += 1
        return (z - z_k) + alpha * lin + alpha * (2.0 * pen.coeff * (pen.AtA @ z))

    lb_static = float(np.linalg.norm(grad_g(z_k))) / L_g

    def certified(z, gn):
        lb = max(lb_static, float(np.linalg.norm(z_k - z)) - gn)
        return gn * gn / 2.0 <= delta * lb * lb

    x = z_k - alpha * lin
    gn = gn0 = float(np.linalg.norm(grad_g(x)))
    ok = certified(x, gn)

    def after(k, x_avg, z, A):
        nonlocal gn, ok, steps
        steps += 1
        gn = float(np.linalg.norm(grad_g(x_avg)))
        ok = certified(x_avg, gn)
        return ok

    if not ok:
        x, _, _ = expression_form_triangle(
            lambda A: next_alpha_stm(A, L_g, 1.0, factor=2.0), 0.0, x, x, budget,
            lambda k, x_tilde, a, A_next: grad_g(x_tilde), expression_form_pull_back(1.0), after)
    return x, gn * gn / 2.0, ok or not gn > 1e-2 * gn0, products, steps


def split_form_inner_prox(pen, z_k, alpha, lin, delta, budget):
    """The inner prox of ``stm_ips`` in split form, ``grad g(z) = (z - c0) +
    alpha grad_h(z)`` with ``grad_h`` the product of the prescaled penalty
    matrix, whose mirror update no longer goes through ``x~``: the rounding
    reference for :func:`optdec.primal._inner_prox_stm` and the form the
    ``stm_ips`` goldens were recorded with before the table form.  Returns
    (z, gap bound, converged, AtA products, steps)."""
    from optdec.schedules import next_alpha_stm
    L_g = alpha * pen.L_h + 1.0
    c0 = z_k - alpha * lin
    H = 2.0 * pen.coeff * pen.AtA
    products = steps = 0

    def grad_h(z):
        nonlocal products
        products += 1
        return H @ z

    def grad_g(z):
        return (z - c0) + alpha * grad_h(z)

    lb_static = float(np.linalg.norm(grad_g(z_k))) / L_g

    def certified(z, gn):
        lb = max(lb_static, float(np.linalg.norm(z - z_k)) - gn)
        return gn * gn / 2.0 <= delta * lb * lb

    gn = gn0 = float(np.linalg.norm(grad_g(c0)))
    ok = certified(c0, gn)

    def after(k, x_avg, z, A):
        nonlocal gn, ok, steps
        steps += 1
        gn = float(np.linalg.norm(grad_g(x_avg)))
        ok = certified(x_avg, gn)
        return ok

    x = c0
    if not ok:
        x, _, _ = expression_form_triangle(
            lambda A: next_alpha_stm(A, L_g, 1.0, factor=2.0), 0.0, c0, c0, budget,
            lambda k, x_tilde, a, A_next: grad_h(x_tilde),
            lambda z, g, x_tilde, a, A_next: z - a / (1.0 + A_next) * ((z - c0) + alpha * g),
            after)
    return x, gn * gn / 2.0, ok or not gn > 1e-2 * gn0, products, steps


def table_form_inner_prox(pen, z_k, alpha, lin, delta, budget):
    """The inner prox of ``stm_ips`` in table form with the full certificate
    formed on every step: the bitwise reference for
    :func:`optdec.primal._inner_prox_stm`, which forms it only where it can
    hold.  Returns (z, gap bound, converged, AtA products, steps)."""
    import itertools
    import math

    from optdec.primal import _prox_step_table
    from optdec.schedules import stm_step
    products = 0

    def grad_h(z):
        nonlocal products
        products += 1
        return pen.h_gradient(z)

    L_g = alpha * pen.L_h + 1.0
    c0 = z_k - alpha * lin
    lb_static = float(np.linalg.norm((z_k - c0) + alpha * grad_h(z_k))) / L_g
    buf = np.stack([c0, c0, c0, z_k, *np.zeros((2, len(c0)))])
    cur, nxt = ((b, b[0], b[4], b[5], b[:2]) for b in (buf, buf.copy()))
    certificate = np.array([[1.0, 0.0, -1.0, 0.0, 0.0, alpha], [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]])
    steps = _prox_step_table(stm_step(L_g, 1.0, 2.0), alpha, budget)
    for k in itertools.count():
        buf, x, gh_tilde, gh_x, _ = cur
        gh_x[...] = grad_h(x)
        W = certificate.dot(buf)
        (gg, _), (_, dd) = W.dot(W.T).tolist()
        gn = math.sqrt(gg)
        lb = max(lb_static, math.sqrt(dd) - gn)
        ok = gn * gn / 2.0 <= delta * lb * lb
        if k == 0:
            gn0 = gn
        if ok or k >= budget or not math.isfinite(gn):
            break
        x_tilde_row, rows = next(steps)
        gh_tilde[...] = grad_h(x_tilde_row.dot(buf))
        np.dot(rows, buf, out=nxt[4])
        cur, nxt = nxt, cur
    return x.copy(), gn * gn / 2.0, ok or not gn > 1e-2 * gn0, products, k


class ShiftByShiftRegularizedDual:
    """The restart regulariser as an explicit list of shifts, looped over on
    every call: the rounding reference for the one-quadratic
    :class:`optdec.dual.RegularizedDual` and the form the ``ac_sa``, ``rrma``
    goldens were first recorded with."""

    def __init__(self, base, lam, anchor):
        if not lam > 0:
            raise ValueError("lam must be positive")
        self.base = base
        self.lam = float(lam)
        self.anchor = np.array(anchor, dtype=float)
        self.shift_terms = []

    def add_shift(self, center):
        weight = self.lam * 2.0 ** len(self.shift_terms)
        self.shift_terms.append((weight, np.array(center, dtype=float)))

    @property
    def strong_convexity(self):
        return self.lam + 2.0 * sum(w for w, _ in self.shift_terms)

    @property
    def smoothness(self):
        return self.base.L_psi + self.strong_convexity

    def reg_grad(self, y):
        g = self.lam * (y - self.anchor)
        for w, c in self.shift_terms:
            g = g + 2.0 * w * (y - c)
        return g

    def batch_grad(self, y, r, streams):
        g, _ = self.base.batch_grad_and_x(y, r, streams)
        return g + self.reg_grad(y)

    def value(self, y):
        v = self.base.psi_value(y) + 0.5 * self.lam * float(np.sum((y - self.anchor) ** 2))
        for w, c in self.shift_terms:
            v += w * float(np.sum((y - c) ** 2))
        return v


def solve_argmax(quadratic, y):
    """``Q^{-1}(y + b)`` by one ``np.linalg.solve`` per call: the rounding
    reference for the cached-inverse ``QuadraticProblem.conjugate_argmax``."""
    return np.linalg.solve(quadratic.Q, y + quadratic.b)


def count_seeding(monkeypatch) -> dict:
    """Count the streams built by ``RngStreams.generator``, the one stream constructor."""
    from optdec.oracles import RngStreams
    counts = {"streams": 0}
    generator = RngStreams.generator

    def counted(self, *index):
        counts["streams"] += 1
        return generator(self, *index)

    monkeypatch.setattr(RngStreams, "generator", counted)
    return counts
