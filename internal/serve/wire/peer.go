package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"wrbpg/internal/obs"
)

// The 200 body of POST /v1/peer/schedule comes in two forms. The JSON
// envelope is PeerScheduleResponse as compact JSON. The packed frame is
// the same envelope with result.schedule left out, a '\n', then the
// move list in core.Schedule's packed form (AppendBinary): about 2
// bytes a move instead of 25, and no pass of encoding/json over it.
// Compact JSON holds no raw newline, so the first one ends the head.
// A forwarder asks for the frame with Accept: PeerMediaType; an owner
// answers packed only when asked, so replicas of either version keep
// filling each other.
const (
	// PeerMediaType is the Content-Type of the packed frame.
	PeerMediaType = "application/x-wrbpg-peer"

	// EnvelopePacked and EnvelopeJSON name the two forms, as the
	// envelope attribute of the peer.fill and peer.serve spans.
	EnvelopePacked = "packed"
	EnvelopeJSON   = "json"
)

// PeerEnvelope returns the form a media-type list asks for: packed when
// it names PeerMediaType, else JSON. It reads an owner's Accept header
// and a forwarder's Content-Type alike.
func PeerEnvelope(mediaTypes string) string {
	for mediaTypes != "" {
		var mt string
		mt, mediaTypes, _ = strings.Cut(mediaTypes, ",")
		mt, _, _ = strings.Cut(mt, ";")
		if strings.EqualFold(strings.TrimSpace(mt), PeerMediaType) {
			return EnvelopePacked
		}
	}
	return EnvelopeJSON
}

// PeerContentType is the Content-Type a response of the given form
// travels under.
func PeerContentType(form string) string {
	if form == EnvelopePacked {
		return PeerMediaType
	}
	return "application/json"
}

// packedHead is the JSON head of a packed frame. Its Schedule field is
// shallower than the one promoted from the embedded result, so it hides
// that one, and being nil it is omitted.
type packedHead struct {
	Result struct {
		*ScheduleResult
		Schedule *struct{} `json:"schedule,omitempty"`
	} `json:"result"`
	Trace *obs.TraceExport `json:"trace,omitempty"`
}

// AppendPeerResponse appends env, whose Result must be set, to dst in
// the given form. The JSON form is exactly json.Marshal(env).
func AppendPeerResponse(dst []byte, env *PeerScheduleResponse, form string) ([]byte, error) {
	if env.Result == nil {
		return dst, fmt.Errorf("wire: peer response without a result")
	}
	var b []byte
	var err error
	if form == EnvelopePacked {
		head := packedHead{Trace: env.Trace}
		head.Result.ScheduleResult = env.Result
		b, err = json.Marshal(&head)
	} else {
		// A copy, so that env itself never escapes.
		b, err = json.Marshal(*env)
	}
	if err != nil {
		return dst, err
	}
	if dst == nil {
		dst = b // json.Marshal's buffer is the caller's: no copy
	} else {
		dst = append(dst, b...)
	}
	if form != EnvelopePacked {
		return dst, nil
	}
	return env.Result.Schedule.AppendBinary(append(dst, '\n'))
}

// DecodePeerResponse decodes a 200 peer body by its Content-Type. A
// packed frame must carry exactly result.move_count moves. A JSON body
// may be indented (older owners), and a bare ScheduleResult (owners
// from before the envelope) decodes as an envelope without a trace.
func DecodePeerResponse(contentType string, body []byte) (*PeerScheduleResponse, error) {
	var env PeerScheduleResponse
	if PeerEnvelope(contentType) == EnvelopePacked {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return nil, fmt.Errorf("wire: packed peer frame has no move section")
		}
		head, moves := body[:i], body[i+1:]
		if err := json.Unmarshal(head, &env); err != nil {
			return nil, fmt.Errorf("wire: packed peer frame head: %w", err)
		}
		if env.Result == nil {
			return nil, fmt.Errorf("wire: packed peer frame has no result")
		}
		if err := env.Result.Schedule.UnmarshalBinary(moves); err != nil {
			return nil, fmt.Errorf("wire: packed peer frame: %w", err)
		}
		if n := len(env.Result.Schedule); n != env.Result.MoveCount {
			return nil, fmt.Errorf("wire: packed peer frame carries %d moves, move_count says %d", n, env.Result.MoveCount)
		}
		return &env, nil
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("wire: peer envelope: %w", err)
	}
	if env.Result == nil {
		var res ScheduleResult
		if err := json.Unmarshal(body, &res); err != nil || res.Workload == "" {
			return nil, fmt.Errorf("wire: peer body is neither an envelope nor a result")
		}
		env.Result = &res
	}
	return &env, nil
}
