package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// testGraph builds a small fixed topology with known structure:
//
//	0 — 1 — 2 — 3
//	    |       |
//	    4 ——————+
//	2 — 5            (5's only link: failing node 2 partitions 5)
//	6 is isolated    (no links: joining 6 on a healthy net is no_path)
//
// All weights 1, except the 4–3 long way (weight 2) so shortest paths are
// unambiguous.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.New(7)
	type e struct {
		u, v graph.NodeID
		w    float64
	}
	for _, ed := range []e{
		{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {1, 4, 1}, {4, 3, 2}, {2, 5, 1},
	} {
		if err := b.AddEdge(ed.u, ed.v, ed.w); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", ed.u, ed.v, err)
		}
	}
	return b.Freeze()
}

// waxmanGraph builds a connected evaluation-scale topology for concurrency
// and capacity tests.
func waxmanGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: n, Alpha: 0.25, Beta: topology.DefaultBeta, EnsureConnected: true,
	}, topology.NewRNG(seed))
	if err != nil {
		t.Fatalf("waxman: %v", err)
	}
	return g
}

// testServer boots a handler-only control plane over g and returns the
// Server plus an httptest frontend. The server is drained at cleanup.
func testServer(t testing.TB, g *graph.Graph) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(g, RegistryConfig{Generation: 7})
	srv := New(reg, Config{})
	ts := httptest.NewServer(srv.mux)
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	return srv, ts
}

// readAll drains and closes a response body as a string.
func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(data)
}

// tryJSON issues one request with a JSON body and decodes the JSON response,
// reporting failures as errors — safe from non-test goroutines where
// t.Fatal is illegal. A nil body sends no payload; a nil out discards the
// response body.
func tryJSON(client *http.Client, method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, fmt.Errorf("marshal body: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, fmt.Errorf("new request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("read body: %w", err)
	}
	if out != nil && len(bytes.TrimSpace(data)) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode %q: %w", method, url, data, err)
		}
	}
	return resp.StatusCode, nil
}

// doJSON is tryJSON with t.Fatal on any transport or decoding failure. Only
// call it from the test goroutine.
func doJSON(t testing.TB, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	code, err := tryJSON(client, method, url, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// createSession creates a session rooted at source and returns its ID.
func createSession(t testing.TB, client *http.Client, base string, source graph.NodeID) string {
	t.Helper()
	var info SessionInfo
	code := doJSON(t, client, http.MethodPost, base+"/v1/sessions",
		CreateSessionRequest{Source: source}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	if info.ID == "" {
		t.Fatal("create session: empty ID")
	}
	return info.ID
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	ID    uint64
	Kind  string
	Event Event
}

// openSSE subscribes to a session's event feed and returns a channel of
// parsed frames plus a cancel function. The channel closes when the stream
// ends.
func openSSE(t testing.TB, base, id string) (<-chan sseEvent, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/sessions/"+id+"/events", nil)
	if err != nil {
		t.Fatalf("sse request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("sse connect: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("sse connect: status %d", resp.StatusCode)
	}
	out := make(chan sseEvent, 256)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		var cur sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if cur.Kind != "" {
					out <- cur
				}
				cur = sseEvent{}
			case strings.HasPrefix(line, "id: "):
				fmt.Sscanf(line, "id: %d", &cur.ID)
			case strings.HasPrefix(line, "event: "):
				cur.Kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				_ = json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Event)
			}
		}
	}()
	return out, func() { resp.Body.Close() }
}
