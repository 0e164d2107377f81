// Canonical instance representation: the cacheable identity of one
// solve. A serving system (cmd/wrbpgd) keys its schedule cache on
// Instance.Key, so two requests naming the same dataflow family, the
// same parameters, the same node weights and the same budget are the
// same content-addressed instance — regardless of field order in the
// request JSON, node display names, or which client sent them.

package solve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"wrbpg/internal/cdag"
	"wrbpg/internal/core"
	"wrbpg/internal/dwt"
	"wrbpg/internal/ktree"
	"wrbpg/internal/mvm"
	"wrbpg/internal/wcfg"
)

// Family names a dataflow family the solve facade can build and
// schedule from parameters alone (plus "cdag" for explicit graphs).
const (
	FamilyDWT   = "dwt"
	FamilyKTree = "ktree"
	FamilyMVM   = "mvm"
	FamilyCDAG  = "cdag"
)

// Instance is the canonical, cacheable description of one solvable
// instance: a graph family with its parameters and weight
// configuration (or an explicit CDAG), ready to be turned into a
// Problem. Instances are content-addressed via Key.
type Instance struct {
	// Family is one of the Family* constants.
	Family string
	// N is the DWT input count or the MVM column count.
	N int
	// D is the DWT level.
	D int
	// M is the MVM row count.
	M int
	// K and Height describe a full k-ary tree (ktree family).
	K, Height int
	// Cfg assigns the node weights for the parametric families; it is
	// ignored for FamilyCDAG, whose graph carries explicit weights.
	Cfg wcfg.Config
	// G is the explicit graph of a FamilyCDAG instance.
	G *cdag.Graph
	// Perm, when non-nil, records the relabeling Canonicalize applied:
	// Perm[requestID] = canonical ID. It is not part of the instance's
	// content-addressed identity (that is the point of canonicalizing);
	// serving layers keep it to remap canonical-space move lists back
	// into the requester's numbering.
	Perm []cdag.NodeID
	// Deltas, when non-empty, are per-node weight overrides applied on
	// top of the Cfg-derived weights — the canonical delta form of the
	// incremental re-solve engine. They must be in canonical order
	// (strictly increasing node IDs, see cdag.CanonicalDeltas) and are
	// part of the instance's content-addressed identity: Key and
	// ShapeKey cover them, BaseShapeKey does not. Only the incremental
	// families (dwt, ktree) accept deltas.
	Deltas []cdag.WeightDelta
}

// Validate checks the cheap structural requirements without building
// the graph: a known family, parameters in range, and for FamilyCDAG a
// present, valid graph. Family-specific constructors re-validate on
// Build; Validate exists so a server can reject malformed requests
// before paying for construction.
func (in *Instance) Validate() error {
	switch in.Family {
	case FamilyDWT:
		if in.D < 1 || in.N < 1 {
			return fmt.Errorf("solve: dwt requires n ≥ 1 and d ≥ 1, got n=%d d=%d", in.N, in.D)
		}
	case FamilyKTree:
		if in.K < 1 || in.K > ktree.MaxK || in.Height < 1 {
			return fmt.Errorf("solve: ktree requires 1 ≤ k ≤ %d and height ≥ 1, got k=%d height=%d",
				ktree.MaxK, in.K, in.Height)
		}
	case FamilyMVM:
		if in.M < 2 || in.N < 1 {
			return fmt.Errorf("solve: mvm requires m ≥ 2 and n ≥ 1, got m=%d n=%d", in.M, in.N)
		}
	case FamilyCDAG:
		if in.G == nil {
			return fmt.Errorf("solve: cdag instance has no graph")
		}
		if err := in.G.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("solve: unknown family %q (want dwt, ktree, mvm or cdag)", in.Family)
	}
	if in.Family != FamilyCDAG {
		if in.Cfg.WordBits < 1 || in.Cfg.InputWords < 1 || in.Cfg.NodeWords < 1 {
			return fmt.Errorf("solve: weight config must be positive, got word=%d input=%d node=%d",
				in.Cfg.WordBits, in.Cfg.InputWords, in.Cfg.NodeWords)
		}
	}
	if len(in.Deltas) > 0 {
		if in.Family != FamilyDWT && in.Family != FamilyKTree {
			return fmt.Errorf("solve: family %q does not support weight deltas (mvm weights are tied to the tiling config; cdag graphs carry explicit weights)", in.Family)
		}
		for i, d := range in.Deltas {
			if d.Node < 0 {
				return fmt.Errorf("solve: delta %d names negative node %d", i, d.Node)
			}
			if d.Weight < 1 {
				return fmt.Errorf("solve: delta %d sets non-positive weight %d on node %d", i, d.Weight, d.Node)
			}
			if i > 0 && d.Node <= in.Deltas[i-1].Node {
				return fmt.Errorf("solve: deltas not canonical at index %d: node %d after node %d (sort by node, merge duplicates — cdag.CanonicalDeltas)", i, d.Node, in.Deltas[i-1].Node)
			}
		}
	}
	return nil
}

// Label returns a human-readable name for reports, e.g.
// "Equal DWT(256,8)".
func (in *Instance) Label() string {
	switch in.Family {
	case FamilyDWT:
		return fmt.Sprintf("%s DWT(%d,%d)", in.Cfg.Name, in.N, in.D)
	case FamilyKTree:
		return fmt.Sprintf("%s KTree(k=%d,h=%d)", in.Cfg.Name, in.K, in.Height)
	case FamilyMVM:
		return fmt.Sprintf("%s MVM(%d,%d)", in.Cfg.Name, in.M, in.N)
	case FamilyCDAG:
		n := 0
		if in.G != nil {
			n = in.G.Len()
		}
		return fmt.Sprintf("CDAG(%d nodes)", n)
	default:
		return in.Family
	}
}

// Key returns the content-addressed cache key of the instance at the
// given budget: "<family>/<hex sha-256>" over a canonical binary
// serialization of family, parameters, weight configuration and
// budget. For FamilyCDAG the digest covers the full semantic content
// of the graph — per-node weights and parent lists — but not display
// names, which do not affect schedules.
func (in *Instance) Key(budget cdag.Weight) string {
	return in.digest(true, budget)
}

// ShapeKey returns the budget-free content-addressed identity of the
// instance: two instances share a ShapeKey exactly when they describe
// the same graph (including any weight deltas), so a warm solver
// session built for one answers budget queries for the other.
func (in *Instance) ShapeKey() string {
	return in.digest(false, 0)
}

// BaseShapeKey returns the ShapeKey of the instance with its weight
// deltas stripped — the identity of the *base* graph a patch applies
// to. Serving layers key their warm session pool on it, so every
// patched variant of one base instance lands on (and re-patches) the
// same pooled session instead of spawning one session per delta list.
// For a delta-free instance it equals ShapeKey.
func (in *Instance) BaseShapeKey() string {
	if len(in.Deltas) == 0 {
		return in.digest(false, 0)
	}
	base := *in
	base.Deltas = nil
	return base.digest(false, 0)
}

// digest implements Key and ShapeKey over one canonical serialization.
func (in *Instance) digest(withBudget bool, budget cdag.Weight) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	h.Write([]byte(in.Family))
	h.Write([]byte{0})
	if withBudget {
		put(int64(budget))
	}
	if in.Family == FamilyCDAG && in.G != nil {
		put(int64(in.G.Len()))
		for v := 0; v < in.G.Len(); v++ {
			id := cdag.NodeID(v)
			put(in.G.Weight(id))
			ps := in.G.Parents(id)
			put(int64(len(ps)))
			for _, p := range ps {
				put(int64(p))
			}
		}
	} else {
		put(int64(in.N))
		put(int64(in.D))
		put(int64(in.M))
		put(int64(in.K))
		put(int64(in.Height))
		put(int64(in.Cfg.WordBits))
		put(int64(in.Cfg.InputWords))
		put(int64(in.Cfg.NodeWords))
	}
	// Delta-free instances write nothing here, so their keys are
	// byte-identical to the pre-delta serialization (cache continuity).
	if len(in.Deltas) > 0 {
		put(int64(len(in.Deltas)))
		for _, d := range in.Deltas {
			put(int64(d.Node))
			put(int64(d.Weight))
		}
	}
	return in.Family + "/" + hex.EncodeToString(h.Sum(nil))
}

// Build constructs the instance's graph and wraps it as a Problem for
// Run. The returned graph is the Problem's underlying CDAG (for lower
// bounds, existence checks and validation). Construction routes
// through the family constructors' error paths, so malformed
// parameters surface as errors, never panics.
func (in *Instance) Build() (Problem, *cdag.Graph, error) {
	if err := in.Validate(); err != nil {
		return Problem{}, nil, err
	}
	if in.Family == FamilyCDAG {
		return AnytimeCDAG(in.G), in.G, nil
	}
	f, err := in.build()
	if err != nil {
		return Problem{}, nil, err
	}
	return f.problem(), f.g, nil
}

// Canonicalize relabels a FamilyCDAG instance's graph into the
// structural canonical form (cdag.Canonical) and records the applied
// permutation in Perm, so isomorphic submissions of the same dataflow
// share one Key regardless of node order or names. Non-cdag families
// are already canonical (their identity is their parameters); calling
// it twice is harmless (the second relabeling is an identity composed
// into Perm).
func (in *Instance) Canonicalize() {
	if in.Family != FamilyCDAG || in.G == nil || in.G.Validate() != nil {
		return
	}
	canon, perm := cdag.Canonical(in.G)
	if in.Perm == nil {
		in.Perm = perm
	} else {
		composed := make([]cdag.NodeID, len(in.Perm))
		for orig, mid := range in.Perm {
			composed[orig] = perm[mid]
		}
		in.Perm = composed
	}
	in.G = canon
}

// RequestSchedule expresses a canonical-space schedule back in the
// requester's original node numbering — the inverse of the relabeling
// Canonicalize recorded in Perm. When no relabeling was applied the
// schedule is returned unchanged.
func (in *Instance) RequestSchedule(s core.Schedule) core.Schedule {
	if len(in.Perm) == 0 || s == nil {
		return s
	}
	inv := cdag.InversePerm(in.Perm)
	out := make(core.Schedule, len(s))
	for i, m := range s {
		out[i] = core.Move{Kind: m.Kind, Node: inv[m.Node]}
	}
	return out
}

// build constructs the family-typed graph of a validated DP-family
// instance (Build answers cdag itself and NewSession refuses it);
// Build wraps it as a Problem and NewSession as a warm session. The
// parametric families take their topology from the shape table and
// fill in only the weights; dwt and ktree also take their entry's
// scheduler pool, which only Build's Problem draws on. The incremental
// families apply any weight deltas after construction, so the cold
// path solves exactly the graph a patched session holds.
func (in *Instance) build() (family, error) {
	f := family{name: in.Family}
	switch in.Family {
	case FamilyDWT:
		t, pool, err := topology(shapeKey{FamilyDWT, in.N, in.D}, dwt.NewTopology)
		if err != nil {
			return f, err
		}
		g, err := t.Graph(dwt.ConfigWeights(in.Cfg))
		if err != nil {
			return f, err
		}
		if err := in.applyDeltas(g.G); err != nil {
			return f, err
		}
		if len(in.Deltas) > 0 {
			// Deltas can break the Lemma 3.2 weight assumption the DWT
			// scheduler relies on; fail here, before any solver state
			// exists.
			if err := g.CheckWeightAssumption(); err != nil {
				return f, err
			}
		}
		f.g, f.layers, f.dwt, f.pool = g.G, g.Layers, g, pool
	case FamilyKTree:
		t, pool, err := topology(shapeKey{FamilyKTree, in.K, in.Height}, ktree.NewTopology)
		if err != nil {
			return f, err
		}
		tr, err := t.Tree(func(depth, index int) cdag.Weight {
			if depth == in.Height {
				return in.Cfg.Input()
			}
			return in.Cfg.Node()
		})
		if err != nil {
			return f, err
		}
		if err := in.applyDeltas(tr.G); err != nil {
			return f, err
		}
		f.g, f.tree, f.pool = tr.G, tr, pool
	case FamilyMVM:
		t, _, err := topology(shapeKey{FamilyMVM, in.M, in.N}, mvm.NewTopology)
		if err != nil {
			return f, err
		}
		g, err := t.Graph(in.Cfg)
		if err != nil {
			return f, err
		}
		f.g, f.mvm = g.G, g
	default:
		return f, fmt.Errorf("solve: unknown family %q", in.Family)
	}
	return f, nil
}

func (in *Instance) applyDeltas(g *cdag.Graph) error {
	for _, d := range in.Deltas {
		if err := g.TrySetWeight(d.Node, d.Weight); err != nil {
			return fmt.Errorf("solve: %w", err)
		}
	}
	return nil
}
