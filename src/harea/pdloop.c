/* The iteration body of harea's primal-dual loop, compiled.

   pd_run(state, steps, energies) runs `steps` iterations in place on the
   buffers of one solve, which harea/pdloop.py packs into `struct pd_state`,
   and then writes the checkpoint's interior and penalty energies into
   energies[0] and energies[1].  Every element goes through the operations of the
   NumPy block in harea/solver.py, in the same order and with the same
   roundings, so the iterates and the energies are equal bit for bit:

   - h div: (q0 + q1) - (q0[prev0] + q1[c - 1]); the rim cells are rewritten
     from sums that start at 0.0 and add the rim entries in order, as
     bincount does;
   - the primal step p = hdiv * factor + u, rounded twice, then du = p - u
     and u_step = p + du;
   - the boundary prox at the owner cells, from their p: max, min, min and
     max in the NumPy block's order, with NumPy's rule for NaN and signed
     zeros (the first operand wins only when it is strictly larger, or
     smaller, or NaN); an owner with m > 2 faces takes the m-th smallest of
     its 2m + 1 candidates, NaN last.  The owners' du and u_step are then
     rewritten from the prox;
   - h grad: the forward differences; the cells with a rewritten entry are
     redone from their saved dual after the pass;
   - the dual: ((g + hX*) + q), g0*g0 + g1*g1, sqrt, max(., radius), and
     numerator / ., then q * keep + g and u + du * relax;
   - the energies: h times the sum of the cell norms |hgrad(u) + hX*|, and
     the sum of |u[owner] - phi| * measure over the faces, each summed as
     NumPy's add.reduce sums a contiguous array (pairwise_sum).

   The state holds all scratch space and the kernel no static data, so
   blocks bound to different solves may run at once.  The passes over every
   cell are functions of their own with restrict array parameters, so that
   GCC vectorizes them; restrict on local pointers loaded from the state
   does not.  Build with -ffp-contract=off: contracting a * b + c into one
   fused multiply-add rounds once where NumPy rounds twice. */

#include <math.h>
#include <stddef.h>

typedef ptrdiff_t idx_t;

struct pd_state {
    idx_t n;
    double *u, *q, *g, *u_step, *du; /* q is component-major (2, n); g the energy's norms (n) */
    const double *hxs;               /* h X*, (2, n) */
    /* h div */
    const idx_t *prev0;
    idx_t n_rim, n_rim_entries;
    const idx_t *rim, *rim_entries, *rim_bins;
    double *rim_sums;                /* (2 n_rim) */
    /* h grad */
    const idx_t *next0;
    idx_t n_edge;
    const idx_t *edge_cells;         /* (2, n_edge) the cells each rewritten entry differences */
    idx_t n_fix;                     /* cells with a rewritten entry */
    const idx_t *fix, *fix_slot;     /* the cells, ascending; each entry's index in fix_g */
    double *fix_g, *fix_q;           /* their gradient and saved dual, (2, n_fix) each */
    /* boundary prox */
    int constrained;
    idx_t n_owner;
    const idx_t *owner;              /* interior index of each owner cell */
    const double *lo, *hi, *t, *mean;
    double *owner_x;                 /* (n_owner) the prox */
    idx_t n_multi;                   /* owners with more than two faces */
    const idx_t *multi_pos, *multi_m, *multi_off;
    const double *multi_data;        /* per such owner: m face values, then the m + 1 moves */
    double *select;                  /* (2 max m + 1) */
    /* checkpoint energy */
    idx_t n_face;
    const idx_t *face_owner;
    const double *phi, *measure;
    double *terms;                   /* (n_face) */
    double h, factor, radius, numerator, keep, relax;
};

/* a pass over every cell, kept out of line: inlined into pd_run, the dual
   pass is split in two by GCC 12, which leaves the half with the square
   root and the divide scalar */
#define PASS __attribute__((noinline)) static

size_t pd_state_size(void) { return sizeof(struct pd_state); }

static inline double np_max(double a, double b) { return (a > b || a != a) ? a : b; }
static inline double np_min(double a, double b) { return (a < b || a != a) ? a : b; }

/* the order of np.sort: NaN after every number */
static inline int before(double a, double b) { return a < b || (b != b && a == a); }

static double order_statistic(double *v, idx_t len, idx_t k)
{
    for (idx_t i = 1; i < len; i++) {
        double x = v[i];
        idx_t j = i;
        for (; j > 0 && before(x, v[j - 1]); j--)
            v[j] = v[j - 1];
        v[j] = x;
    }
    return v[k];
}

/* NumPy's pairwise_sum: 8 accumulators up to 128 terms, halves above */
static double pairwise_sum(const double *a, idx_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (idx_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        idx_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    idx_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.add.reduce: the identity 0.0 plus the pairwise sum */
static double add_reduce(const double *a, idx_t n) { return 0.0 + pairwise_sum(a, n); }

/* out = hdiv(q) at the regular cells; cell 0 is on the rim */
PASS void div_pass(idx_t n, const double *restrict q0, const double *restrict q1,
                   const idx_t *restrict prev0, double *restrict out)
{
    for (idx_t c = 1; c < n; c++)
        out[c] = (q0[c] + q1[c]) - (q0[prev0[c]] + q1[c - 1]);
}

/* u_step = hdiv(q) */
static void hdiv(const struct pd_state *s)
{
    double *out = s->u_step, *sums = s->rim_sums;
    div_pass(s->n, s->q, s->q + s->n, s->prev0, out);
    for (idx_t r = 0; r < 2 * s->n_rim; r++)
        sums[r] = 0.0;
    for (idx_t e = 0; e < s->n_rim_entries; e++)
        sums[s->rim_bins[e]] += s->q[s->rim_entries[e]];
    for (idx_t r = 0; r < s->n_rim; r++)
        out[s->rim[r]] = sums[r] - sums[s->n_rim + r];
}

/* owner_x = prox(p) at the owner cells, p = hdiv * factor + u read from u_step */
static void prox(const struct pd_state *s)
{
    const double *v = s->u_step, *u = s->u;
    double *x = s->owner_x;
    if (s->constrained) {
        for (idx_t i = 0; i < s->n_owner; i++)
            x[i] = s->mean[i];
        return;
    }
    for (idx_t i = 0; i < s->n_owner; i++) {
        idx_t c = s->owner[i];
        double vi = v[c] * s->factor + u[c];
        double y = np_max(vi, s->lo[i]);
        y = np_min(y, s->hi[i]);
        y = np_min(y, vi + s->t[i]);
        x[i] = np_max(y, vi - s->t[i]);
    }
    for (idx_t j = 0; j < s->n_multi; j++) {
        idx_t m = s->multi_m[j], c = s->owner[s->multi_pos[j]];
        const double *faces = s->multi_data + s->multi_off[j], *moves = faces + m;
        double vi = v[c] * s->factor + u[c];
        for (idx_t i = 0; i < m; i++)
            s->select[i] = faces[i];
        for (idx_t i = 0; i <= m; i++)
            s->select[m + i] = vi + moves[i];
        x[s->multi_pos[j]] = order_statistic(s->select, 2 * m + 1, m);
    }
}

/* v holds hdiv on entry; p = v * factor + u, du = p - u, v = p + du */
PASS void primal_pass(idx_t n, double *restrict v, const double *restrict u,
                      double *restrict du, double factor)
{
    for (idx_t c = 0; c < n; c++) {
        double p = v[c] * factor + u[c];
        double d = p - u[c];
        du[c] = d;
        v[c] = p + d;
    }
}

/* the gradient h grad(v) at the fix cells: forward differences, then the
   rewritten entries */
static void fix_gradient(const struct pd_state *s, const double *v)
{
    const idx_t nf = s->n_fix;
    double *g = s->fix_g;
    for (idx_t j = 0; j < nf; j++) {
        idx_t c = s->fix[j];
        g[j] = v[s->next0[c]] - v[c];
        g[nf + j] = c + 1 < s->n ? v[c + 1] - v[c] : 0.0;
    }
    for (idx_t e = 0; e < s->n_edge; e++)
        g[s->fix_slot[e]] = v[s->edge_cells[e]] - v[s->edge_cells[s->n_edge + e]];
}

/* q <- q * keep + relax proj(q + g + hX*) for one cell */
static inline void dual_cell(double g0, double g1, double x0, double x1, double *q0, double *q1,
                             double numerator, double radius, double keep)
{
    double a0 = (g0 + x0) + *q0;
    double a1 = (g1 + x1) + *q1;
    double f = numerator / np_max(sqrt(a0 * a0 + a1 * a1), radius);
    *q0 = *q0 * keep + a0 * f;
    *q1 = *q1 * keep + a1 * f;
}

/* the dual step from the forward differences of v, and u += du * relax;
   cell n - 1 has no forward difference along axis 1 and is a fix cell */
PASS void dual_pass(idx_t n, const double *restrict v, const idx_t *restrict next0,
                    const double *restrict x0, const double *restrict x1,
                    double *restrict q0, double *restrict q1,
                    double *restrict u, double *restrict du,
                    double numerator, double radius, double keep, double relax)
{
    for (idx_t c = 0; c + 1 < n; c++) {
        dual_cell(v[next0[c]] - v[c], v[c + 1] - v[c], x0[c], x1[c], &q0[c], &q1[c],
                  numerator, radius, keep);
        double d = du[c] * relax;
        du[c] = d;
        u[c] = u[c] + d;
    }
    if (n > 0) {
        double d = du[n - 1] * relax;
        du[n - 1] = d;
        u[n - 1] = u[n - 1] + d;
    }
}

/* out = |hgrad(v) + hX*| per cell from the forward differences */
PASS void norm_pass(idx_t n, const double *restrict v, const idx_t *restrict next0,
                    const double *restrict x0, const double *restrict x1, double *restrict out)
{
    for (idx_t c = 0; c + 1 < n; c++) {
        double a0 = (v[next0[c]] - v[c]) + x0[c];
        double a1 = (v[c + 1] - v[c]) + x1[c];
        out[c] = sqrt(a0 * a0 + a1 * a1);
    }
}

static void energy(const struct pd_state *s, double *out)
{
    const idx_t n = s->n, nf = s->n_fix;
    const double *u = s->u, *x0 = s->hxs, *x1 = s->hxs + n;
    double *norms = s->g;
    norm_pass(n, u, s->next0, x0, x1, norms);
    fix_gradient(s, u);
    for (idx_t j = 0; j < nf; j++) {
        idx_t c = s->fix[j];
        double a0 = s->fix_g[j] + x0[c], a1 = s->fix_g[nf + j] + x1[c];
        norms[c] = sqrt(a0 * a0 + a1 * a1);
    }
    out[0] = s->h * add_reduce(norms, n);
    for (idx_t f = 0; f < s->n_face; f++)
        s->terms[f] = fabs(u[s->face_owner[f]] - s->phi[f]) * s->measure[f];
    out[1] = add_reduce(s->terms, s->n_face);
}

void pd_run(const struct pd_state *s, idx_t steps, double *energies)
{
    const idx_t n = s->n, nf = s->n_fix;
    double *u = s->u, *u_step = s->u_step, *du = s->du;
    double *q0 = s->q, *q1 = s->q + n;
    const double *x0 = s->hxs, *x1 = s->hxs + n;
    for (idx_t k = 0; k < steps; k++) {
        /* u~ = prox(u + factor hdiv(q)), kept as du = u~ - u and u_step = 2 u~ - u */
        hdiv(s);
        prox(s);
        primal_pass(n, u_step, u, du, s->factor);
        for (idx_t i = 0; i < s->n_owner; i++) {
            idx_t c = s->owner[i];
            double d = s->owner_x[i] - u[c];
            du[c] = d;
            u_step[c] = s->owner_x[i] + d;
        }
        /* q = keep q + relax proj(q + hgrad(2 u~ - u) + hX*), u += relax (u~ - u) */
        for (idx_t j = 0; j < nf; j++) {
            s->fix_q[j] = q0[s->fix[j]];
            s->fix_q[nf + j] = q1[s->fix[j]];
        }
        dual_pass(n, u_step, s->next0, x0, x1, q0, q1, u, du,
                  s->numerator, s->radius, s->keep, s->relax);
        fix_gradient(s, u_step);
        for (idx_t j = 0; j < nf; j++) {
            idx_t c = s->fix[j];
            q0[c] = s->fix_q[j];
            q1[c] = s->fix_q[nf + j];
            dual_cell(s->fix_g[j], s->fix_g[nf + j], x0[c], x1[c], &q0[c], &q1[c],
                      s->numerator, s->radius, s->keep);
        }
    }
    energy(s, energies);
}
