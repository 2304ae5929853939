package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"texcache"
)

var update = flag.Bool("update", false, "rewrite the golden NDJSON fixture")

// e2eRequest is the request both paths run: a custom sweep plus one
// registered experiment would differ in kind, so pin one of each.
func e2eSweepBody() string {
	return `{"scene":"goblet","scale":8,"configs":[` +
		`{"size_bytes":32768,"line_bytes":128,"ways":2},` +
		`{"size_bytes":16384,"line_bytes":64,"ways":1,"policy":"fifo"}]}`
}

// e2eSweepBodyWith is e2eSweepBody with one more top-level field.
func e2eSweepBodyWith(field string) string {
	return "{" + field + "," + strings.TrimPrefix(e2eSweepBody(), "{")
}

// texsimNDJSON produces the bytes `texsim -request - -json` writes for
// the same request: the facade Run plus the shared NDJSON serializer.
func texsimNDJSON(t *testing.T, body string) []byte {
	t.Helper()
	var req texcache.ExperimentRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	results, err := texcache.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := texcache.WriteResultsNDJSON(&buf, results, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func serverNDJSON(t *testing.T, ts string, body string) []byte {
	t.Helper()
	resp, err := http.Post(ts+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	return b
}

// TestServerNDJSONByteIdentity is the API contract test: for the same
// ExperimentRequest, the texserve response body is byte-for-byte the
// local `texsim -json` output, and both match the checked-in golden
// fixture (refresh with -update).
func TestServerNDJSONByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name, body, golden string
	}{
		{"sweep", e2eSweepBody(), "sweep.ndjson"},
		{"sweep per-config", e2eSweepBodyWith(`"sweep":"per-config"`), "sweep.ndjson"},
		{"experiment", `{"experiments":["fig5.2"],"scenes":["goblet"],"scale":8}`, "experiment.ndjson"},
		{"architecture", `{"scene":"goblet","scale":8,"architecture":{"pipeline":"both","fill_latency":100}}`, "architecture.ndjson"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local := texsimNDJSON(t, tc.body)
			_, ts := testServer(t, serverConfig{Workers: 2})
			remote := serverNDJSON(t, ts.URL, tc.body)
			if !bytes.Equal(local, remote) {
				t.Fatalf("server NDJSON differs from texsim -json:\nlocal:\n%s\nremote:\n%s", local, remote)
			}
			golden := filepath.Join("testdata", "golden", tc.golden)
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, local, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(local, want) {
				t.Errorf("NDJSON drifted from golden fixture %s:\ngot:\n%s\nwant:\n%s", golden, local, want)
			}
		})
	}
}

// TestServerCoalescing is the single-flight contract under load: N
// concurrent clients posting the identical request cost exactly one
// render through the server's shared trace cache.
func TestServerCoalescing(t *testing.T) {
	s, ts := testServer(t, serverConfig{Workers: 4, Queue: 32})
	const clients = 16
	body := e2eSweepBody()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			if len(b) == 0 {
				errs <- io.ErrUnexpectedEOF
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.traces.Renders(); got != 1 {
		t.Errorf("Renders() = %d after %d identical requests, want 1", got, clients)
	}
}
