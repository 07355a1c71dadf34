/* The iteration body of harea's primal-dual loop, compiled.

   pd_run(state, steps, energies) runs `steps` iterations in place on the
   buffers of one solve, which harea/pdloop.py packs into `struct pd_state`,
   and then writes the checkpoint's interior and penalty energies into
   energies[0] and energies[1].  pd_normal(state, v, g, w) applies K^T K
   once, for the step rule's estimate of ||K||^2, on the operator's fields
   of the state alone (see its comment).

   An iteration is one sweep over the cells in row-major order, a lead
   `lead` cells ahead of a lag.  The lead at a cell takes h div and the
   primal step, the lag the dual step and u += relax du.  The sweep runs
   the lead alone over the first `lead` cells, then chunk by chunk the lead
   at c + lead and the lag at c in one loop, and last the lag alone.  After
   each chunk, the rim cells the lead has passed are finished: h div from
   their rim entries, the primal step, and at the owners among them the
   boundary prox.  The cells with a rewritten gradient entry are redone from
   their saved dual after the sweep.

   Every loop over the cells reads a cell's axis-0 neighbor at a constant
   offset, not through an index array: the operator's run tables split the
   cells into runs of one step, next0 - c for the lag, the energy and h
   grad, c - prev0 for the lead and h div, and a loop runs over a stretch of
   cells inside one run of each table it reads (and inside one chunk of the
   sweep).  So its loads are plain vector loads; GCC compiles an indexed
   load to a gather (vgatherqpd with AVX2), which made the host build's
   block 2.1-2.8 times as slow on a Sapphire Rapids Xeon (BENCH_41.json).  At a
   fix cell a run carries on the lag's step of the cell before it, and at a
   rim cell the lead's, because the kernel rewrites the value there after
   the sweep or the pass; either way the step is in [0, s] and the cell it
   reads in [0, n), as fields._runs asserts, so the argument below holds for
   those reads too.  next0 itself is read only at the fix cells.

   The lead is the chunk plus the stencil's reach s, the largest step from a
   cell to its forward neighbor along axis 0 (next0 - c) or axis 1 (1).
   h div at a cell, regular or rim, reads q at cells at most s away
   (c - prev0 is such a step), and h grad at c reads u_step at most s cells
   ahead.  So while the lag works on the chunk [b, b + chunk), the lead and
   the rim read q and u only at cells from b + chunk on, which the lag has
   not yet updated, and the lag reads u_step and du only at cells before
   b + lead, which the lead and the rim finished in earlier chunks.  No
   iteration of a chunk's loop depends on another, and every cell gets the
   values that separate passes over all cells would give it.

   Every element goes through the operations of the NumPy block in
   harea/solver.py, in the same order and with the same roundings, so the
   iterates and the energies are equal bit for bit:

   - h div: (q0 + q1) - (q0[prev0] + q1[c - 1]); at a rim cell, the sum of
     its added entries minus the sum of its subtracted ones, each starting
     at 0.0 and adding the entries in ascending order, as bincount does;
   - the primal step p = hdiv * factor + u, rounded twice, then du = p - u
     and u_step = p + du;
   - the boundary prox at the owner cells, from their p: max, min, min and
     max in the NumPy block's order, with NumPy's rule for NaN and signed
     zeros (the first operand wins only when it is strictly larger, or
     smaller, or NaN); an owner with m > 2 faces takes the m-th smallest of
     its 2m + 1 candidates, NaN last.  The owner's du and u_step come from
     the prox;
   - h grad: the forward differences;
   - the dual: ((g + hX*) + q), g0*g0 + g1*g1, sqrt, max(., radius), and
     numerator / ., then q * keep + g and u + du * relax;
   - the energies: h times the sum of the cell norms |hgrad(u) + hX*|, and
     the sum of |u[owner] - phi| * measure over the faces, each summed as
     NumPy's add.reduce sums a contiguous array (pairwise_sum).  That is
     the functional's one evaluation, _energy_terms in harea/energy.py,
     which the NumPy block and penalized_energy call.

   The state holds all scratch space and the kernel no static data, so
   blocks bound to different solves may run at once.  The loops over the
   cells are functions of their own with restrict array parameters, so that
   GCC vectorizes them; restrict on local pointers loaded from the state
   does not.  The sweep's loop reads and writes u_step, du, q and u at
   cells a lead apart, which GCC cannot prove independent; `#pragma GCC
   ivdep` states it (a second restrict parameter on the same array would
   draw -Wrestrict).  Build with -ffp-contract=off: contracting a * b + c
   into one fused multiply-add rounds once where NumPy rounds twice. */

#include <math.h>
#include <stddef.h>

typedef ptrdiff_t idx_t;

struct pd_state {
    idx_t n, chunk, lead;            /* the sweep's chunk of cells and the lead's offset */
    double *u, *q, *g, *u_step, *du; /* q, g (2, n) component-major; g: fix cells' h grad, norms */
    const double *hxs;               /* h X*, (2, n) */
    /* h div */
    idx_t n_prev0_run;
    const idx_t *prev0_runs;         /* (2, n_prev0_run): each run's end, then its step c - prev0 */
    idx_t n_rim;
    const idx_t *rim;                /* the cells that are not regular, ascending */
    const idx_t *rim_ptr, *rim_src;  /* rim cell r adds q at rim_src[rim_ptr[2r]:rim_ptr[2r+1]] and
                                        subtracts q at rim_src[rim_ptr[2r+1]:rim_ptr[2r+2]] */
    const idx_t *rim_owner;          /* the owner index of each rim cell, -1 for none */
    /* h grad */
    idx_t n_next0_run;
    const idx_t *next0_runs;         /* (2, n_next0_run): each run's end, then its step next0 - c */
    const idx_t *next0;              /* read at the fix cells only */
    idx_t n_edge;
    const idx_t *edge, *edge_cells;  /* the rewritten entries' flat indices into a (2, n)
                                        gradient, and (2, n_edge) the cells each differences */
    idx_t n_fix;                     /* cells with a rewritten entry */
    const idx_t *fix;                /* the cells, ascending */
    double *fix_q;                   /* their saved dual, (2, n_fix) */
    /* boundary prox, per owner */
    int constrained;
    const double *lo, *hi, *t, *mean;
    const idx_t *owner_multi;        /* the index among the owners with m > 2 faces, -1 for none */
    const idx_t *multi_m, *multi_off;
    const double *multi_data;        /* per such owner: m face values, then the m + 1 moves */
    double *select;                  /* (2 max m + 1) */
    /* checkpoint energy */
    idx_t n_face;
    const idx_t *face_owner;
    const double *phi, *measure;
    double *terms;                   /* (n_face) */
    double h, factor, radius, numerator, keep, relax;
};

/* a function with loops over the cells, kept out of line: inlined into
   pd_run, it loses the restrict of its parameters, and GCC 12 leaves the
   sweep's fill and drain loops scalar */
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

/* the boundary prox of owner i at p: max, min, min and max, or the m-th
   smallest of 2m + 1 candidates for an owner with m > 2 faces */
static double prox(const struct pd_state *s, idx_t i, double p)
{
    if (s->constrained)
        return s->mean[i];
    idx_t j = s->owner_multi[i];
    if (j < 0) {
        double y = np_max(p, s->lo[i]);
        y = np_min(y, s->hi[i]);
        y = np_min(y, p + s->t[i]);
        return np_max(y, p - s->t[i]);
    }
    idx_t m = s->multi_m[j];
    const double *faces = s->multi_data + s->multi_off[j], *moves = faces + m;
    for (idx_t k = 0; k < m; k++)
        s->select[k] = faces[k];
    for (idx_t k = 0; k <= m; k++)
        s->select[m + k] = p + moves[k];
    return order_statistic(s->select, 2 * m + 1, m);
}

static inline idx_t min_idx(idx_t a, idx_t b) { return a < b ? a : b; }

/* the end of the run of `runs` (each run's end, then its step) that holds
   cell c, moving the run index *k forward to that run */
static inline idx_t run_end(const idx_t *runs, idx_t *k, idx_t c)
{
    while (runs[*k] <= c)
        ++*k;
    return runs[*k];
}

/* the lead at a regular cell j, whose axis-0 predecessor is j - back: h div,
   then p = hdiv * factor + u, du = p - u and u_step = p + du */
static inline void lead_cell(idx_t j, idx_t back, const double *q0, const double *q1,
                             const double *u, double *u_step, double *du, double factor)
{
    double p = ((q0[j] + q1[j]) - (q0[j - back] + q1[j - 1])) * factor + u[j];
    double d = p - u[j];
    du[j] = d;
    u_step[j] = p + d;
}

/* the lead alone at the cells [j, end), run by run of the n_run runs
   `back` from run *run on */
static inline void lead_alone(idx_t j, idx_t end, const idx_t *back, idx_t n_run, idx_t *run,
                              const double *q0, const double *q1, const double *u, double *u_step,
                              double *du, double factor)
{
    for (idx_t e; j < end; j = e) {
        e = min_idx(run_end(back, run, j), end);
        const idx_t step = back[n_run + *run];
        for (idx_t i = j; i < e; i++)
            lead_cell(i, step, q0, q1, u, u_step, du, factor);
    }
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

/* the lag at a cell c < n - 1, whose axis-0 successor is c + fwd: the dual
   step from the forward differences of u_step, then u += du * relax */
static inline void lag_cell(idx_t c, idx_t fwd, const double *u_step, const double *x0,
                            const double *x1, double *q0, double *q1, double *u, double *du,
                            double numerator, double radius, double keep, double relax)
{
    dual_cell(u_step[c + fwd] - u_step[c], u_step[c + 1] - u_step[c], x0[c], x1[c], &q0[c], &q1[c],
              numerator, radius, keep);
    double d = du[c] * relax;
    du[c] = d;
    u[c] = u[c] + d;
}

/* h div of q at rim cell r: the sum of its added entries minus the sum of
   its subtracted ones, each side summed from 0.0 in order as bincount sums
   it */
static inline double rim_hdiv(const struct pd_state *s, idx_t r, const double *q)
{
    const idx_t *src = s->rim_src, *ptr = s->rim_ptr + 2 * r;
    double added = 0.0, subtracted = 0.0;
    for (idx_t e = ptr[0]; e < ptr[1]; e++)
        added += q[src[e]];
    for (idx_t e = ptr[1]; e < ptr[2]; e++)
        subtracted += q[src[e]];
    return added - subtracted;
}

/* finish the lead at the rim cells from rim[r] up to cell end: h div, the
   primal step, and at an owner the prox; returns the next r */
static idx_t finish_rim(const struct pd_state *s, idx_t r, idx_t end, const double *q,
                        const double *u, double *u_step, double *du)
{
    for (; r < s->n_rim && s->rim[r] < end; r++) {
        const idx_t c = s->rim[r];
        double p = rim_hdiv(s, r, q) * s->factor + u[c];
        if (s->rim_owner[r] >= 0)
            p = prox(s, s->rim_owner[r], p);
        double d = p - u[c];
        du[c] = d;
        u_step[c] = p + d;
    }
    return r;
}

/* one iteration's sweep over the cells, the lead `lead` cells ahead of
   the lag; each loop runs over a stretch of cells where the lead's and the
   lag's axis-0 steps are constant, and no iteration of a chunk's loop
   depends on another (see the top) */
PASS void sweep(const struct pd_state *s, double *restrict q, double *restrict u,
                double *restrict u_step, double *restrict du, const double *restrict hxs)
{
    const idx_t n = s->n, chunk = s->chunk, lead = s->lead, fill = min_idx(lead, n);
    const double factor = s->factor, numerator = s->numerator, radius = s->radius, keep = s->keep;
    const double relax = s->relax;
    const idx_t *back = s->prev0_runs, *fwd = s->next0_runs;
    const idx_t *back_step = back + s->n_prev0_run, *fwd_step = fwd + s->n_next0_run;
    idx_t kb = 0, kf = 0;  /* the runs of the lead's cell and of the lag's, both only ascending */
    double *q0 = q, *q1 = q + n;
    const double *x0 = hxs, *x1 = hxs + n;
    lead_alone(1, fill, back, s->n_prev0_run, &kb, q0, q1, u, u_step, du, factor);  /* cell 0 is on the rim */
    idx_t r = finish_rim(s, 0, fill, q, u, u_step, du), b = 0;
    for (; b + chunk + lead <= n; b += chunk) {
        for (idx_t c = b, e; c < b + chunk; c = e) {
            e = min_idx(min_idx(run_end(fwd, &kf, c), run_end(back, &kb, c + lead) - lead), b + chunk);
            const idx_t fs = fwd_step[kf], bs = back_step[kb];
#pragma GCC ivdep
            for (idx_t i = c; i < e; i++) {
                lead_cell(i + lead, bs, q0, q1, u, u_step, du, factor);
                lag_cell(i, fs, u_step, x0, x1, q0, q1, u, du, numerator, radius, keep, relax);
            }
        }
        r = finish_rim(s, r, b + chunk + lead, q, u, u_step, du);
    }
    lead_alone(b + lead, n, back, s->n_prev0_run, &kb, q0, q1, u, u_step, du, factor);
    finish_rim(s, r, n, q, u, u_step, du);
    for (idx_t c = b, e; c < n - 1; c = e) {
        e = min_idx(run_end(fwd, &kf, c), n - 1);
        const idx_t fs = fwd_step[kf];
        for (idx_t i = c; i < e; i++)
            lag_cell(i, fs, u_step, x0, x1, q0, q1, u, du, numerator, radius, keep, relax);
    }
    if (n > 0) {  /* cell n - 1 has no forward difference along axis 1 and is a fix cell */
        double d = du[n - 1] * relax;
        du[n - 1] = d;
        u[n - 1] = u[n - 1] + d;
    }
}

/* h grad(v) at the fix cells into g (2, n), at the flat indices that
   DiffOperator.hgrad writes: forward differences, then the entries at edge */
static void fix_gradient(const struct pd_state *s, const double *v, double *g)
{
    const idx_t n = s->n;
    for (idx_t j = 0; j < s->n_fix; j++) {
        idx_t c = s->fix[j];
        g[c] = v[s->next0[c]] - v[c];
        g[n + c] = c + 1 < n ? v[c + 1] - v[c] : 0.0;
    }
    for (idx_t e = 0; e < s->n_edge; e++)
        g[s->edge[e]] = v[s->edge_cells[e]] - v[s->edge_cells[s->n_edge + e]];
}

/* out = |hgrad(v) + hX*| per cell from the forward differences, along axis
   0 at the steps of the k runs `fwd` (each run's end, then its step) */
PASS void norm_pass(idx_t n, const double *restrict v, const idx_t *restrict fwd, idx_t k,
                    const double *restrict x0, const double *restrict x1, double *restrict out)
{
    for (idx_t run = 0, c = 0; run < k; run++) {
        const idx_t end = min_idx(fwd[run], n - 1), step = fwd[k + run];
        for (; c < end; c++) {
            double a0 = (v[c + step] - v[c]) + x0[c];
            double a1 = (v[c + 1] - v[c]) + x1[c];
            out[c] = sqrt(a0 * a0 + a1 * a1);
        }
    }
}

static void energy(const struct pd_state *s, double *out)
{
    const idx_t n = s->n;
    const double *u = s->u, *x0 = s->hxs, *x1 = s->hxs + n;
    double *norms = s->g;
    norm_pass(n, u, s->next0_runs, s->n_next0_run, x0, x1, norms);
    fix_gradient(s, u, s->g);
    for (idx_t j = 0; j < s->n_fix; j++) {
        idx_t c = s->fix[j];
        double a0 = s->g[c] + x0[c], a1 = s->g[n + c] + x1[c];
        norms[c] = sqrt(a0 * a0 + a1 * a1);  /* over g[c], after both entries are read */
    }
    out[0] = s->h * add_reduce(norms, n);
    for (idx_t f = 0; f < s->n_face; f++)
        s->terms[f] = fabs(u[s->face_owner[f]] - s->phi[f]) * s->measure[f];
    out[1] = add_reduce(s->terms, s->n_face);
}

/* g = h grad(v) / h from the forward differences, along axis 0 at the
   steps of the k runs `fwd`; the fix cells are rewritten after */
PASS void grad_pass(idx_t n, const double *restrict v, const idx_t *restrict fwd, idx_t k, double h,
                    double *restrict g0, double *restrict g1)
{
    for (idx_t run = 0, c = 0; run < k; run++) {
        const idx_t end = min_idx(fwd[run], n - 1), step = fwd[k + run];
        for (; c < end; c++) {
            g0[c] = (v[c + step] - v[c]) / h;
            g1[c] = (v[c + 1] - v[c]) / h;
        }
    }
}

/* w = -(h div(g) / h) from cell 1 on, along axis 0 at the steps of the k
   runs `back`; the rim cells, cell 0 among them, are rewritten after */
PASS void div_pass(const double *restrict g0, const double *restrict g1, const idx_t *restrict back,
                   idx_t k, double h, double *restrict w)
{
    for (idx_t run = 0, c = 1; run < k; run++) {
        const idx_t end = back[run], step = back[k + run];
        for (; c < end; c++)
            w[c] = -(((g0[c] + g1[c]) - (g0[c - step] + g1[c - 1])) / h);
    }
}

/* w = -div(grad v) with the operator's h, g (2, n) as scratch: the one
   application of K^T K in the step rule's loop, fields._step_rule.  Each
   element is rounded as -K.div(K.grad(v)) rounds it: h grad with the edge
   entries rewritten, / h, h div with each rim side summed from 0.0 in
   bincount's order, / h, negated.  Reads only the operator's fields of the
   state (n, h, the h div and h grad tables). */
void pd_normal(const struct pd_state *s, const double *v, double *g, double *w)
{
    const double h = s->h;
    double *g0 = g, *g1 = g + s->n;
    grad_pass(s->n, v, s->next0_runs, s->n_next0_run, h, g0, g1);
    fix_gradient(s, v, g);
    for (idx_t j = 0; j < s->n_fix; j++) {
        g0[s->fix[j]] /= h;
        g1[s->fix[j]] /= h;
    }
    div_pass(g0, g1, s->prev0_runs, s->n_prev0_run, h, w);
    for (idx_t r = 0; r < s->n_rim; r++)
        w[s->rim[r]] = -(rim_hdiv(s, r, g) / h);
}

void pd_run(const struct pd_state *s, idx_t steps, double *energies)
{
    const idx_t n = s->n, nf = s->n_fix;
    double *u = s->u, *u_step = s->u_step, *du = s->du;
    double *q0 = s->q, *q1 = s->q + n;
    const double *x0 = s->hxs, *x1 = s->hxs + n;
    for (idx_t k = 0; k < steps; k++) {
        for (idx_t j = 0; j < nf; j++) {
            s->fix_q[j] = q0[s->fix[j]];
            s->fix_q[nf + j] = q1[s->fix[j]];
        }
        /* lead: u~ = prox(u + factor hdiv(q)), kept as du = u~ - u and
           u_step = 2 u~ - u; lag: q = keep q + relax proj(q + hgrad(2 u~ - u)
           + hX*), u += relax (u~ - u) */
        sweep(s, s->q, u, u_step, du, s->hxs);
        /* the fix cells: from their saved dual and their true gradient */
        fix_gradient(s, u_step, s->g);
        for (idx_t j = 0; j < nf; j++) {
            idx_t c = s->fix[j];
            q0[c] = s->fix_q[j];
            q1[c] = s->fix_q[nf + j];
            dual_cell(s->g[c], s->g[n + c], x0[c], x1[c], &q0[c], &q1[c],
                      s->numerator, s->radius, s->keep);
        }
    }
    energy(s, energies);
}
