// Response encoding. ScheduleResult and PatchResponse append
// themselves as the exact bytes json.Encoder with SetIndent("", "  ")
// writes for them, trailing newline included, in one pass over the
// fields: no reflection, no second pass to indent, no intermediate
// buffer. The same field writers emit json.Marshal's compact layout
// for the peer hop (peer.go).

package wire

import (
	"strconv"
	"unicode/utf8"

	"wrbpg/internal/core"
)

// Stamp holds the fields one response sets on a ScheduleResult. A
// cached result is shared by every request that hits it and is never
// written, so each response's cache disposition, key, elapsed time,
// cost block and move list travel beside it.
type Stamp struct {
	Cache     string
	CacheKey  string
	ElapsedUS int64
	Cost      *CostMeta
	Schedule  core.Schedule
}

// AppendJSON appends r as json.Encoder with SetIndent("", "  ")
// writes it.
func (r *ScheduleResult) AppendJSON(dst []byte) []byte {
	st := r.ownStamp()
	return r.AppendStamped(dst, &st)
}

// ownStamp is the stamp of r's own fields.
func (r *ScheduleResult) ownStamp() Stamp {
	return Stamp{Cache: r.Cache, CacheKey: r.CacheKey, ElapsedUS: r.ElapsedUS, Cost: r.Cost, Schedule: r.Schedule}
}

// AppendStamped appends r with st's fields in place of its own, as
// AppendJSON would append such a copy of r.
func (r *ScheduleResult) AppendStamped(dst []byte, st *Stamp) []byte {
	o := jsonOut{b: dst}
	o.result(r, st, st.Schedule)
	return append(o.b, '\n')
}

// result writes r as an object with st's fields in place of its own
// and sched as its move list, omitted when empty.
func (o *jsonOut) result(r *ScheduleResult, st *Stamp, sched core.Schedule) {
	o.open('{')
	o.str("workload", r.Workload)
	o.str("source", r.Source)
	o.strOmit("fallback_reason", r.FallbackReason)
	o.strOmit("fallback_cause", r.FallbackCause)
	o.num("budget_bits", r.BudgetBits)
	o.num("cost_bits", r.CostBits)
	o.num("peak_bits", r.PeakBits)
	o.num("lower_bound_bits", r.LowerBoundBits)
	o.num("move_count", int64(r.MoveCount))
	o.key("move_kinds")
	o.open('{')
	o.num("M1", int64(r.MoveKinds.M1))
	o.num("M2", int64(r.MoveKinds.M2))
	o.num("M3", int64(r.MoveKinds.M3))
	o.num("M4", int64(r.MoveKinds.M4))
	o.close('}')
	if a := r.Anytime; a != nil {
		o.key("anytime")
		o.open('{')
		o.flag("complete", a.Complete)
		o.num("seed_cost_bits", a.SeedCostBits)
		o.num("expanded", a.Expanded)
		o.num("pruned", a.Pruned)
		o.num("deduped", a.Deduped)
		o.num("improvements", a.Improvements)
		o.num("workers", int64(a.Workers))
		o.close('}')
	}
	if len(sched) > 0 {
		o.key("schedule")
		o.open('[')
		for _, m := range sched {
			o.elem()
			o.open('{')
			o.key("kind")
			o.b = append(o.b, '"')
			o.b = append(o.b, m.Kind.String()...)
			o.b = append(o.b, '"')
			o.num("node", int64(m.Node))
			o.close('}')
		}
		o.close(']')
	}
	o.num("elapsed_us", st.ElapsedUS)
	o.strOmit("cache_key", st.CacheKey)
	o.strOmit("cache", st.Cache)
	o.cost(st.Cost)
	o.close('}')
}

// AppendJSON appends r as json.Encoder with SetIndent("", "  ")
// writes it.
func (r *PatchResponse) AppendJSON(dst []byte) []byte {
	o := jsonOut{b: dst}
	o.open('{')
	o.str("workload", r.Workload)
	o.str("base_key", r.BaseKey)
	o.str("patch_key", r.PatchKey)
	o.num("lower_bound_bits", r.LowerBoundBits)
	o.num("min_existence_bits", r.MinExistenceBits)
	o.key("items")
	if r.Items == nil {
		o.b = append(o.b, "null"...)
	} else {
		o.open('[')
		for i := range r.Items {
			it := &r.Items[i]
			o.elem()
			o.open('{')
			o.num("budget_bits", it.BudgetBits)
			o.numOmit("cost_bits", it.CostBits)
			o.flag("feasible", it.Feasible)
			if e := it.Error; e != nil {
				o.key("error")
				o.open('{')
				o.num("status", int64(e.Status))
				o.str("error", e.Message)
				o.strOmit("reason", e.Reason)
				o.numOmit("retry_after_s", e.RetryAfterS)
				o.close('}')
			}
			o.close('}')
		}
		o.close(']')
	}
	o.num("succeeded", int64(r.Succeeded))
	o.num("failed", int64(r.Failed))
	o.str("session", r.Session)
	o.num("deltas_applied", int64(r.DeltasApplied))
	o.num("changed_nodes", int64(r.ChangedNodes))
	o.num("cells_invalidated", r.CellsInvalidated)
	o.num("cells_reused", r.CellsReused)
	o.num("elapsed_us", r.ElapsedUS)
	o.cost(r.Cost)
	o.close('}')
	return append(o.b, '\n')
}

// jsonOut appends indented JSON in the layout of json.Indent with two
// spaces a level: a member or element per line, and an empty object or
// array as {} or []. A compact jsonOut appends json.Marshal's layout
// instead: no whitespace at all.
type jsonOut struct {
	b       []byte
	depth   int
	compact bool
	// empty reports that the innermost open object or array has no
	// member yet.
	empty bool
}

func (o *jsonOut) open(c byte) {
	o.b = append(o.b, c)
	o.depth++
	o.empty = true
}

func (o *jsonOut) close(c byte) {
	o.depth--
	if !o.empty {
		o.newline()
	}
	o.b = append(o.b, c)
	o.empty = false
}

func (o *jsonOut) newline() {
	if o.compact {
		return
	}
	o.b = append(o.b, '\n')
	for range o.depth {
		o.b = append(o.b, "  "...)
	}
}

// elem starts a member or an element.
func (o *jsonOut) elem() {
	if !o.empty {
		o.b = append(o.b, ',')
	}
	o.newline()
	o.empty = false
}

// key starts the member k; k needs no escaping.
func (o *jsonOut) key(k string) {
	o.elem()
	o.b = append(o.b, '"')
	o.b = append(o.b, k...)
	if o.compact {
		o.b = append(o.b, `":`...)
	} else {
		o.b = append(o.b, `": `...)
	}
}

func (o *jsonOut) num(k string, v int64) {
	o.key(k)
	o.b = strconv.AppendInt(o.b, v, 10)
}

// numOmit is num under omitempty.
func (o *jsonOut) numOmit(k string, v int64) {
	if v != 0 {
		o.num(k, v)
	}
}

func (o *jsonOut) flag(k string, v bool) {
	o.key(k)
	o.b = strconv.AppendBool(o.b, v)
}

func (o *jsonOut) str(k, v string) {
	o.key(k)
	o.b = appendString(o.b, v)
}

// strOmit is str under omitempty.
func (o *jsonOut) strOmit(k, v string) {
	if v != "" {
		o.str(k, v)
	}
}

// cost writes the cost member, which is omitted when c is nil.
func (o *jsonOut) cost(c *CostMeta) {
	if c == nil {
		return
	}
	o.key("cost")
	o.open('{')
	o.str("source_tier", c.SourceTier)
	o.numOmit("queue_wait_us", c.QueueWaitUS)
	o.numOmit("solve_wall_us", c.SolveWallUS)
	o.numOmit("states_expanded", c.StatesExpanded)
	o.numOmit("memo_hits", c.MemoHits)
	o.numOmit("memo_misses", c.MemoMisses)
	o.numOmit("cells_invalidated", c.CellsInvalidated)
	o.numOmit("cells_reused", c.CellsReused)
	o.numOmit("peer_hops", int64(c.PeerHops))
	o.close('}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: <, > and & as \u003c, \u003e and \u0026,
// control bytes as short escapes where JSON has one and \u00XX
// otherwise, U+2028 and U+2029 escaped, and each byte of invalid UTF-8
// as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
