package wire

import (
	"bytes"
	"encoding/json"
	"fmt"

	"wrbpg/internal/obs"
)

// The 200 body of a peer fill's response frame is the packed frame:
// PeerScheduleResponse as compact JSON with result.schedule left out, a
// '\n', then the move list in core.Schedule's packed form
// (AppendBinary), about 2 bytes a move where JSON takes 25. Compact
// JSON holds no raw newline, so the first one ends the head. The move
// section holds result.move_count moves when the fill asked for them
// (include_moves) and none otherwise.
//
// Neither end runs encoding/json on an untraced hop: the head is
// written by the response field writers in json.Marshal's layout and
// read by the request scanner, and the fill request is appended in
// json.Marshal's bytes. A trace member is marshalled and unmarshalled
// by encoding/json, and so is any head the scanner refuses.

// AppendPeerFrame appends the packed frame of the shared result r as
// one request sees it: st's fields in place of r's own, st.Schedule as
// the move section, and tr, when set, as the head's trace member.
// Neither r nor st is written.
func AppendPeerFrame(dst []byte, r *ScheduleResult, st *Stamp, tr *obs.TraceExport) ([]byte, error) {
	o := jsonOut{b: dst, compact: true}
	o.open('{')
	o.key("result")
	o.result(r, st, nil)
	if tr != nil {
		b, err := json.Marshal(tr)
		if err != nil {
			return dst, err
		}
		o.key("trace")
		o.b = append(o.b, b...)
	}
	o.close('}')
	return st.Schedule.AppendBinary(append(o.b, '\n'))
}

// AppendPeerResponse appends env, whose Result must be set, to dst as
// a packed frame whose move section is env.Result.Schedule.
func AppendPeerResponse(dst []byte, env *PeerScheduleResponse) ([]byte, error) {
	r := env.Result
	if r == nil {
		return dst, fmt.Errorf("wire: peer response without a result")
	}
	st := r.ownStamp()
	return AppendPeerFrame(dst, r, &st, env.Trace)
}

// DecodePeerResponse decodes a 200 peer body. Only a packed frame
// decodes, and it must carry exactly result.move_count moves when
// withMoves, the fill's include_moves, is set and none when it is not;
// any other body is an error.
func DecodePeerResponse(body []byte, withMoves bool) (*PeerScheduleResponse, error) {
	i := bytes.IndexByte(body, '\n')
	if i < 0 {
		return nil, fmt.Errorf("wire: packed peer frame has no move section")
	}
	head, moves := body[:i], body[i+1:]
	env := new(PeerScheduleResponse)
	if !scanPeerHead(head, env) {
		*env = PeerScheduleResponse{}
		if err := json.Unmarshal(head, env); err != nil {
			return nil, fmt.Errorf("wire: packed peer frame head: %w", err)
		}
	}
	if env.Result == nil {
		return nil, fmt.Errorf("wire: packed peer frame has no result")
	}
	if err := env.Result.Schedule.UnmarshalBinary(moves); err != nil {
		return nil, fmt.Errorf("wire: packed peer frame: %w", err)
	}
	want := 0
	if withMoves {
		want = env.Result.MoveCount
	}
	if n := len(env.Result.Schedule); n != want {
		return nil, fmt.Errorf("wire: packed peer frame carries %d moves, want %d (move_count %d, include_moves %t)",
			n, want, env.Result.MoveCount, withMoves)
	}
	return env, nil
}

// AppendPeerRequest appends p as json.Marshal encodes it. A cdag
// interchange graph is written by its own marshaller, whose output is
// already json.Marshal's.
func AppendPeerRequest(dst []byte, p *PeerScheduleRequest) ([]byte, error) {
	o := jsonOut{b: dst, compact: true}
	o.open('{')
	o.key("req")
	if err := o.scheduleRequest(&p.Req); err != nil {
		return dst, err
	}
	o.strOmit("key", p.Key)
	o.strOmit("origin", p.Origin)
	o.close('}')
	return o.b, nil
}

func (o *jsonOut) scheduleRequest(r *ScheduleRequest) error {
	o.open('{')
	o.strOmit("family", r.Family)
	o.numOmit("n", int64(r.N))
	o.numOmit("d", int64(r.D))
	o.numOmit("m", int64(r.M))
	o.numOmit("k", int64(r.K))
	o.numOmit("height", int64(r.Height))
	// omitempty never omits a struct.
	o.key("weights")
	o.open('{')
	o.strOmit("name", r.Weights.Name)
	o.numOmit("word_bits", int64(r.Weights.WordBits))
	o.numOmit("input_words", int64(r.Weights.InputWords))
	o.numOmit("node_words", int64(r.Weights.NodeWords))
	o.close('}')
	if r.Graph != nil {
		b, err := r.Graph.MarshalJSON()
		if err != nil {
			return err
		}
		o.key("graph")
		o.b = append(o.b, b...)
	}
	if r.CDAG != nil {
		o.key("cdag")
		o.graphSpec(r.CDAG)
	}
	if len(r.Deltas) > 0 {
		o.key("deltas")
		o.open('[')
		for _, d := range r.Deltas {
			o.elem()
			o.open('{')
			o.num("node", d.Node)
			o.num("weight_bits", d.WeightBits)
			o.close('}')
		}
		o.close(']')
	}
	o.num("budget_bits", r.BudgetBits)
	o.numOmit("timeout_ms", r.TimeoutMS)
	if r.IncludeMoves {
		o.flag("include_moves", true)
	}
	o.close('}')
	return nil
}

func (o *jsonOut) graphSpec(s *GraphSpec) {
	o.open('{')
	o.key("nodes")
	if s.Nodes == nil {
		o.b = append(o.b, "null"...)
	} else {
		o.open('[')
		for i := range s.Nodes {
			n := &s.Nodes[i]
			o.elem()
			o.open('{')
			o.str("name", n.Name)
			o.num("weight_bits", n.WeightBits)
			if len(n.Deps) > 0 {
				o.key("deps")
				o.open('[')
				for _, d := range n.Deps {
					o.elem()
					o.b = appendString(o.b, d)
				}
				o.close(']')
			}
			o.close('}')
		}
		o.close(']')
	}
	o.close('}')
}
