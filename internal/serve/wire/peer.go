package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"wrbpg/internal/obs"
)

// The 200 body of POST /v1/peer/schedule is the packed frame:
// PeerScheduleResponse as compact JSON with result.schedule left out, a
// '\n', then the move list in core.Schedule's packed form
// (AppendBinary), about 2 bytes a move where JSON takes 25. Compact
// JSON holds no raw newline, so the first one ends the head.

// PeerMediaType is the Content-Type of the packed frame.
const PeerMediaType = "application/x-wrbpg-peer"

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

// AppendPeerResponse appends env, whose Result must be set, to dst as
// a packed frame.
func AppendPeerResponse(dst []byte, env *PeerScheduleResponse) ([]byte, error) {
	if env.Result == nil {
		return dst, fmt.Errorf("wire: peer response without a result")
	}
	head := packedHead{Trace: env.Trace}
	head.Result.ScheduleResult = env.Result
	b, err := json.Marshal(&head)
	if err != nil {
		return dst, err
	}
	if dst == nil {
		dst = b // json.Marshal's buffer is the caller's: no copy
	} else {
		dst = append(dst, b...)
	}
	return env.Result.Schedule.AppendBinary(append(dst, '\n'))
}

// DecodePeerResponse decodes a 200 peer body. Only a packed frame, sent
// as PeerMediaType, decodes, and it must carry exactly
// result.move_count moves; any other body is an error.
func DecodePeerResponse(contentType string, body []byte) (*PeerScheduleResponse, error) {
	mt, _, _ := strings.Cut(contentType, ";")
	if !strings.EqualFold(strings.TrimSpace(mt), PeerMediaType) {
		return nil, fmt.Errorf("wire: peer body of Content-Type %q, want %s", contentType, PeerMediaType)
	}
	i := bytes.IndexByte(body, '\n')
	if i < 0 {
		return nil, fmt.Errorf("wire: packed peer frame has no move section")
	}
	head, moves := body[:i], body[i+1:]
	var env PeerScheduleResponse
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
