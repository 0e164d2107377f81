package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"wrbpg/internal/cdag"
)

// decodeBoth decodes body into a fresh value of v's type through the
// scanner and through the general decoder.
func decodeBoth(t *testing.T, body string, v any) (scanned bool, viaScan, viaStream any, streamErr error) {
	t.Helper()
	typ := reflect.TypeOf(v).Elem()
	s, d := reflect.New(typ).Interface(), reflect.New(typ).Interface()
	scanned = scan([]byte(body), s)
	streamErr = DecodeStream(strings.NewReader(body), d)
	return scanned, s, d, streamErr
}

// TestScannerTakesPlainBodies: the bodies clients send, in every
// request type, are read by the scanner (so they skip encoding/json)
// into the value encoding/json gives.
func TestScannerTakesPlainBodies(t *testing.T) {
	g := cdag.Random(7, 12)
	graph, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		body string
		v    any
	}{
		{`{"family":"dwt","n":32,"d":4,"budget_bits":2048}`, &ScheduleRequest{}},
		{` { "family" : "mvm" , "m":96,"n":8,"budget_bits":1024 , "include_moves":true,"timeout_ms":500} `, &ScheduleRequest{}},
		{`{"family":"ktree","k":2,"height":5,"weights":{"name":"da"},"budget_bits":4096,"include_moves":false}`, &ScheduleRequest{}},
		{`{"family":"dwt","n":32,"d":4,"weights":{"word_bits":8,"input_words":1,"node_words":2},"budget_bits":-9223372036854775808}`, &ScheduleRequest{}},
		{`{"family":"dwt","n":16,"d":2,"deltas":[{"node":5,"weight_bits":8},{"weight_bits":12,"node":5}],"budget_bits":128}`, &ScheduleRequest{}},
		{`{"family":"cdag","budget_bits":64,"graph":` + string(graph) + `}`, &ScheduleRequest{}},
		{`{"family":"cdag","budget_bits":64,"graph":{"nodes":[{"w":8},{"w":8,"parents":[]},{"w":16,"name":"out","parents":[0,1,0]}]}}`, &ScheduleRequest{}},
		{`{"family":"cdag","budget_bits":64,"graph":{}}`, &ScheduleRequest{}},
		{`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[{"name":"x","weight_bits":8},{"name":"y","weight_bits":8,"deps":[]},{"name":"out","weight_bits":16,"deps":["x","y"]}]}}`, &ScheduleRequest{}},
		{`{"family":"cdag","budget_bits":64,"cdag":{"nodes":[]}}`, &ScheduleRequest{}},
		{`{"family":"cdag","budget_bits":64,"cdag":{}}`, &ScheduleRequest{}},
		{`{}`, &ScheduleRequest{}},
		{`{"family":"ktree","k":3,"height":3,"deltas":[],"budgets_bits":[4096,2048,1024,512]}`, &PatchRequest{}},
		{`{"base_key":"sha256:abcdef","deltas":[{"node":1,"weight_bits":8}],"budgets_bits":[64],"timeout_ms":9}`, &PatchRequest{}},
		{`{"family":"dwt","n":16,"d":2,"budgets_bits":[]}`, &PatchRequest{}},
		{`{"req":{"family":"dwt","n":32,"d":4,"budget_bits":2048,"include_moves":true,"timeout_ms":125},"key":"sha256:ab","origin":"http://replica-0:8080"}`, &PeerScheduleRequest{}},
	}
	for _, c := range cases {
		scanned, s, d, err := decodeBoth(t, c.body, c.v)
		if err != nil {
			t.Fatalf("%s: general decoder refuses it: %v", c.body, err)
		}
		if !scanned {
			t.Errorf("%s: not scanned", c.body)
		} else if !reflect.DeepEqual(s, d) {
			t.Errorf("%s: scanned as %+v, decoded as %+v", c.body, s, d)
		}
	}
}

// TestScannerDefers: bodies outside the plain form are left to the
// general decoder, which accepts or refuses them as it always has.
func TestScannerDefers(t *testing.T) {
	for _, body := range []string{
		`{"Family":"dwt","n":32,"d":4,"budget_bits":2048}`,              // key case
		`{"family":"dwt","family":"mvm","budget_bits":2048}`,            // duplicate key
		`{"family":"\u0064wt","budget_bits":2048}`,                      // escape
		`{"family":"dwt","budget_bits":2048,"weights":null}`,            // null
		`{"family":"dwt","budget_bits":2.048e3}`,                        // not an integer
		`{"family":"dwt","budget_bits":9223372036854775808}`,            // out of range
		`{"family":"dwt","n":1,"budget_bits":1,"bogus":1}`,              // unknown key
		`{"family":"dwt","budget_bits":1}]`,                             // trailing data
		`{"family":"cdag","budget_bits":8,"graph":{"nodes":[{"w":0}]}}`, // bad graph
		`{"family":"cdag","budget_bits":8,"graph":{"nodes":[{"w":1,"parents":[2147483648]}]}}`,
		`{"family":"cdag","budget_bits":8,"graph":{"nodes":[{"w":1,"extra":true}]}}`,
		`{"family":"café","budget_bits":1}`,
		`null`,
	} {
		scanned, _, _, _ := decodeBoth(t, body, &ScheduleRequest{})
		if scanned {
			t.Errorf("%s: scanned, want it left to encoding/json", body)
		}
		var viaRequest, viaStream ScheduleRequest
		errR := DecodeRequest([]byte(body), &viaRequest)
		errS := DecodeStream(strings.NewReader(body), &viaStream)
		if fmt.Sprint(errR) != fmt.Sprint(errS) || !reflect.DeepEqual(viaRequest, viaStream) {
			t.Errorf("%s: DecodeRequest gives %+v, %v; DecodeStream %+v, %v", body, viaRequest, errR, viaStream, errS)
		}
	}
}

// TestDecodeStreamTrailing: only whitespace may follow the value,
// whichever bytes follow, and a read error after a complete value is
// not trailing data.
func TestDecodeStreamTrailing(t *testing.T) {
	const v = `{"family":"dwt","n":8,"d":3,"budget_bits":99}`
	for tail, want := range map[string]bool{"": true, " \t\r\n": true, "]": false, "}": false, " {}": false, "0": false} {
		var req ScheduleRequest
		if err := DecodeStream(strings.NewReader(v+tail), &req); (err == nil) != want {
			t.Errorf("tail %q: err %v", tail, err)
		}
	}
	var req ScheduleRequest
	r := io.MultiReader(strings.NewReader(v+"  "), errReader{})
	if err := DecodeStream(r, &req); err != nil {
		t.Errorf("read error after the value: %v", err)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, fmt.Errorf("http: request body too large") }

// TestTypeErrorsNameBodyFields: a wrongly typed value's 400 names the
// field by its path in the body, with no trace of the embedded Spec.
func TestTypeErrorsNameBodyFields(t *testing.T) {
	const prefix = "malformed request body: json: cannot unmarshal "
	for _, c := range []struct {
		body string
		v    any
		want string
	}{
		{`{"family":"dwt","n":"x","budget_bits":1}`, &ScheduleRequest{},
			`string into Go struct field ScheduleRequest.n of type int`},
		{`{"family":5,"budgets_bits":[1]}`, &PatchRequest{},
			`number into Go struct field PatchRequest.family of type string`},
		{`{"family":"dwt","weights":{"name":3},"budget_bits":1}`, &ScheduleRequest{},
			`number into Go struct field WeightSpec.weights.name of type string`},
		{`{"req":{"family":"dwt","deltas":[{"node":"a"}],"budget_bits":1}}`, &PeerScheduleRequest{},
			`string into Go struct field PatchDelta.req.deltas.node of type int64`},
	} {
		err := DecodeRequest([]byte(c.body), c.v)
		if err == nil || err.Error() != prefix+c.want {
			t.Errorf("%s: error %v, want %q", c.body, err, prefix+c.want)
		}
	}
}
