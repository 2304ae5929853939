package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzRequest drives the texserve trust boundary: arbitrary bytes are
// decoded the way the server's handler decodes a request body (unknown
// fields rejected), then normalized and validated. Nothing may panic,
// and every rejection must be a typed *Error. For an accepted request,
// Normalized is idempotent, the request stays accepted whatever the
// sweep field says, and the result identity is the same for "",
// "grouped" and "per-config" — the field is a validated no-op.
func FuzzRequest(f *testing.F) {
	for _, body := range []string{
		`{"scene":"goblet","scale":8,"configs":[{"size_bytes":32768,"line_bytes":128,"ways":2},{"size_bytes":16384,"line_bytes":64,"ways":1,"policy":"fifo"}]}`,
		`{"scene":"goblet","scale":8,"sweep":"per-config","configs":[{"size_bytes":32768,"line_bytes":128,"ways":2}]}`,
		`{"scene":"goblet","scale":8,"sweep":"both","configs":[{"size_bytes":32768,"line_bytes":128,"ways":2}]}`,
		`{"experiments":["fig5.2"],"scenes":["goblet"],"scale":8}`,
		`{"scene":"goblet","scale":8,"architecture":{"pipeline":"both","fill_latency":100}}`,
		`{"scale":8,"grid":{"scenes":["town"],"configs":[{"size_bytes":2048,"line_bytes":64,"ways":1},{"size_bytes":8192,"line_bytes":64,"ways":2}]}}`,
		`{"scale":8,"grid":{"scenes":["town"],"configs":[{"size_bytes":2048,"line_bytes":64,"ways":1}]},"shard":{"index":1,"count":2}}`,
		`{"tenant":"t","experiments":["fig5.2"],"scale":8}`,
		`{"scene":"goblet","configs":[{"size_bytes":100,"line_bytes":128,"ways":2}]}`,
		`{"scene":"nowhere","configs":[{"size_bytes":32768,"line_bytes":128,"ways":2}]}`,
		`{"scnee":"goblet"}`,
		`{"v":9}`,
		`{"scene":`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ExperimentRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		n := req.Normalized()
		if err := Validate(n); err != nil {
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("Validate returned %T %v, want *Error", err, err)
			}
			return
		}
		if again := n.Normalized(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalized is not idempotent:\n once  %+v\n twice %+v", n, again)
		}
		id := n.ResultIdentity()
		for _, mode := range []string{"", SweepGrouped, SweepPerConfig} {
			m := n
			m.Sweep = mode
			if err := Validate(m); err != nil {
				t.Fatalf("sweep %q rejected a request accepted with sweep %q: %v", mode, n.Sweep, err)
			}
			if got := m.ResultIdentity(); got != id {
				t.Fatalf("sweep %q changed the result identity:\n%s\n%s", mode, got, id)
			}
		}
	})
}
