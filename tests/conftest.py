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


def count_seeding(monkeypatch) -> dict:
    """Count the calls of the batch-seeding hash and of the reused generator's constructor."""
    import optdec.oracles as oracles
    counts = {"_pcg64_words": 0, "_raw_generator": 0}
    for name in counts:
        exact = getattr(oracles, name)
        monkeypatch.setattr(oracles, name, lambda *args, exact=exact, name=name:
                            counts.__setitem__(name, counts[name] + 1) or exact(*args))
    return counts
