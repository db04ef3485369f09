package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"smrp/internal/graph"
)

// TestSessionLifecycleHTTP drives one session through the full HTTP
// lifecycle on the fixed test topology: create, join, duplicate join,
// leave, fail (partitioning a member), repair (readmitting it), stats,
// delete.
func TestSessionLifecycleHTTP(t *testing.T) {
	_, ts := testServer(t, testGraph(t))
	c := ts.Client()

	id := createSession(t, c, ts.URL, 0)
	if !strings.HasPrefix(id, "s7-") {
		t.Fatalf("ID %q not generation-stamped with s7-", id)
	}
	base := ts.URL + "/v1/sessions/" + id

	// Join members 3 and 5.
	var jr JoinWire
	if code := doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 3}, &jr); code != http.StatusOK {
		t.Fatalf("join 3: status %d", code)
	}
	if jr.Member != 3 || len(jr.Connection) == 0 {
		t.Fatalf("join 3: bad result %+v", jr)
	}
	if code := doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 5}, nil); code != http.StatusOK {
		t.Fatalf("join 5: status %d", code)
	}

	// Duplicate join conflicts.
	var ew ErrorWire
	if code := doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 3}, &ew); code != http.StatusConflict {
		t.Fatalf("duplicate join: status %d", code)
	}
	if ew.Code != "already_member" {
		t.Fatalf("duplicate join: code %q", ew.Code)
	}

	// Fail node 2: member 5 (whose only link is to node 2) parks.
	var heal HealWire
	if code := doJSON(t, c, http.MethodPost, base+"/fail",
		FailRequest{FailureSpec: FailureSpec{Nodes: []graph.NodeID{2}}}, &heal); code != http.StatusOK {
		t.Fatalf("fail node 2: status %d", code)
	}
	if len(heal.Unrecovered) != 1 || heal.Unrecovered[0] != 5 {
		t.Fatalf("fail node 2: want unrecovered [5], got %+v", heal)
	}

	// The session view shows 5 parked and the net degraded.
	var got struct {
		ID       string         `json:"id"`
		Members  []MemberJSON   `json:"members"`
		Parked   []graph.NodeID `json:"parked"`
		Degraded bool           `json:"degraded"`
	}
	if code := doJSON(t, c, http.MethodGet, base, nil, &got); code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	if got.ID != id || !got.Degraded || len(got.Parked) != 1 || got.Parked[0] != 5 {
		t.Fatalf("get session: %+v", got)
	}

	// Joining the parked member again reports partitioned.
	if code := doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 5}, &ew); code != http.StatusConflict || ew.Code != "partitioned" {
		t.Fatalf("join parked: status %d code %q", code, ew.Code)
	}

	// Repair node 2: member 5 is readmitted automatically.
	var rw RepairWire
	if code := doJSON(t, c, http.MethodPost, base+"/repair",
		FailureSpec{Nodes: []graph.NodeID{2}}, &rw); code != http.StatusOK {
		t.Fatalf("repair: status %d", code)
	}
	if len(rw.Readmitted) != 1 || rw.Readmitted[0] != 5 {
		t.Fatalf("repair: want readmitted [5], got %+v", rw)
	}

	// Stats reflect the work: 2 joins + 1 readmission-join.
	var st StatsWire
	if code := doJSON(t, c, http.MethodGet, base+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Members != 2 || st.Parked != 0 || st.Stats.Joins < 3 || st.Stats.Parks < 1 || st.Stats.Readmissions < 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Leave member 3.
	if code := doJSON(t, c, http.MethodPost, base+"/leave", NodeRequest{Node: 3}, nil); code != http.StatusNoContent {
		t.Fatalf("leave 3: status %d", code)
	}

	// Delete the session; subsequent lookups 404.
	if code := doJSON(t, c, http.MethodDelete, base, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, c, http.MethodGet, base, nil, &ew); code != http.StatusNotFound || ew.Code != "unknown_session" {
		t.Fatalf("get deleted: status %d code %q", code, ew.Code)
	}
	if code := doJSON(t, c, http.MethodDelete, base, nil, &ew); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", code)
	}
}

// MemberJSON mirrors core.MemberState's wire shape for test decoding.
type MemberJSON struct {
	Node  graph.NodeID `json:"node"`
	Delay float64      `json:"delay"`
	SHR   int          `json:"shr"`
}

// TestHTTPErrorPaths table-tests every endpoint's failure surface: unknown
// sessions, malformed bodies, invalid nodes, conflicting operations.
func TestHTTPErrorPaths(t *testing.T) {
	_, ts := testServer(t, testGraph(t))
	c := ts.Client()
	id := createSession(t, c, ts.URL, 0)
	base := ts.URL + "/v1/sessions/" + id
	if code := doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 3}, nil); code != http.StatusOK {
		t.Fatalf("setup join: status %d", code)
	}

	cases := []struct {
		name     string
		method   string
		url      string
		body     any
		raw      string // non-JSON body when set
		wantCode int
		wantSlug string
	}{
		{"create bad source", http.MethodPost, ts.URL + "/v1/sessions",
			CreateSessionRequest{Source: 99}, "", http.StatusBadRequest, "unknown_node"},
		{"create invalid dthresh", http.MethodPost, ts.URL + "/v1/sessions",
			map[string]any{"source": 0, "dthresh": -1}, "", http.StatusBadRequest, "bad_config"},
		{"create unknown field", http.MethodPost, ts.URL + "/v1/sessions",
			map[string]any{"source": 0, "bogus": 1}, "", http.StatusBadRequest, "bad_request"},
		{"create malformed JSON", http.MethodPost, ts.URL + "/v1/sessions",
			nil, "{not json", http.StatusBadRequest, "bad_request"},
		{"get unknown session", http.MethodGet, ts.URL + "/v1/sessions/s7-999",
			nil, "", http.StatusNotFound, "unknown_session"},
		{"join unknown session", http.MethodPost, ts.URL + "/v1/sessions/nope/join",
			NodeRequest{Node: 3}, "", http.StatusNotFound, "unknown_session"},
		{"join node out of range", http.MethodPost, base + "/join",
			NodeRequest{Node: 99}, "", http.StatusBadRequest, "unknown_node"},
		{"join unreachable node", http.MethodPost, base + "/join",
			NodeRequest{Node: 6}, "", http.StatusUnprocessableEntity, "no_path"},
		{"join malformed body", http.MethodPost, base + "/join",
			nil, "{", http.StatusBadRequest, "bad_request"},
		{"create empty body", http.MethodPost, ts.URL + "/v1/sessions",
			nil, "", http.StatusBadRequest, "bad_request"},
		{"join empty body", http.MethodPost, base + "/join",
			nil, "", http.StatusBadRequest, "bad_request"},
		{"join whitespace body", http.MethodPost, base + "/join",
			nil, " \n", http.StatusBadRequest, "bad_request"},
		{"join second JSON value", http.MethodPost, base + "/join",
			nil, `{"node":4}{"node":5}`, http.StatusBadRequest, "bad_request"},
		{"join trailing garbage", http.MethodPost, base + "/join",
			nil, `{"node":4} x`, http.StatusBadRequest, "bad_request"},
		{"fail oversized body", http.MethodPost, base + "/fail",
			nil, `{"nodes":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"leave non-member", http.MethodPost, base + "/leave",
			NodeRequest{Node: 4}, "", http.StatusNotFound, "not_member"},
		{"fail empty set", http.MethodPost, base + "/fail",
			FailRequest{}, "", http.StatusBadRequest, "bad_request"},
		{"fail self-loop link", http.MethodPost, base + "/fail",
			FailRequest{FailureSpec: FailureSpec{Links: []LinkWire{{U: 1, V: 1}}}}, "",
			http.StatusBadRequest, "bad_request"},
		{"fail link to unknown node", http.MethodPost, base + "/fail",
			FailRequest{FailureSpec: FailureSpec{Links: []LinkWire{{U: 1, V: 1 << 40}}}}, "",
			http.StatusBadRequest, "bad_request"},
		{"repair unknown node", http.MethodPost, base + "/repair",
			FailureSpec{Nodes: []graph.NodeID{-1}}, "", http.StatusBadRequest, "bad_request"},
		{"fail the source", http.MethodPost, base + "/fail",
			FailRequest{FailureSpec: FailureSpec{Nodes: []graph.NodeID{0}}}, "",
			http.StatusConflict, "source_failed"},
		{"repair empty set", http.MethodPost, base + "/repair",
			FailureSpec{}, "", http.StatusBadRequest, "bad_request"},
		{"stats unknown session", http.MethodGet, ts.URL + "/v1/sessions/gone/stats",
			nil, "", http.StatusNotFound, "unknown_session"},
		{"events unknown session", http.MethodGet, ts.URL + "/v1/sessions/gone/events",
			nil, "", http.StatusNotFound, "unknown_session"},
		{"delete unknown session", http.MethodDelete, ts.URL + "/v1/sessions/gone",
			nil, "", http.StatusNotFound, "unknown_session"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ew ErrorWire
			var code int
			if tc.raw != "" {
				req, err := http.NewRequest(tc.method, tc.url, strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := c.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				code = resp.StatusCode
				var tmp ErrorWire
				if err := json.NewDecoder(resp.Body).Decode(&tmp); err == nil {
					ew = tmp
				}
			} else {
				code = doJSON(t, c, tc.method, tc.url, tc.body, &ew)
			}
			if code != tc.wantCode {
				t.Fatalf("status = %d, want %d (body code %q)", code, tc.wantCode, ew.Code)
			}
			if tc.wantSlug != "" && ew.Code != tc.wantSlug {
				t.Fatalf("code = %q, want %q", ew.Code, tc.wantSlug)
			}
		})
	}

	// Wrong method on a known route is a router-level 405.
	resp, err := c.Get(base + "/join")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on join: status %d, want 405", resp.StatusCode)
	}
}

// TestHealthAndMetrics checks the operational endpoints: healthz flips to
// 503 on drain, and metrics exposes session and SPF counters.
func TestHealthAndMetrics(t *testing.T) {
	srv, ts := testServer(t, testGraph(t))
	c := ts.Client()
	id := createSession(t, c, ts.URL, 0)
	doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/join", NodeRequest{Node: 3}, nil)

	var hz struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, &hz); code != http.StatusOK || hz.Status != "ok" || hz.Sessions != 1 {
		t.Fatalf("healthz: %d %+v", code, hz)
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		"smrp_sessions 1",
		"smrp_spf_cache_misses_total",
		"smrp_session_mailbox_depth{session=\"" + id + "\"}",
		"smrp_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	// The standing-bytes gauge is a fleet sum of deterministic per-session
	// byte accounting; with one live session it must be present and nonzero.
	if strings.Contains(body, "smrp_session_standing_bytes 0\n") ||
		!strings.Contains(body, "smrp_session_standing_bytes ") {
		t.Errorf("metrics standing-bytes gauge missing or zero in:\n%s", body)
	}

	srv.Drain()
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, &hz); code != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Fatalf("healthz during drain: %d %+v", code, hz)
	}
	// New sessions are refused while draining.
	var ew ErrorWire
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions",
		CreateSessionRequest{Source: 0}, &ew); code != http.StatusServiceUnavailable || ew.Code != "session_closed" {
		t.Fatalf("create during drain: %d %q", code, ew.Code)
	}
}

// TestListSessions exercises the inventory endpoint across creates and
// deletes, including ID-never-reused semantics.
func TestListSessions(t *testing.T) {
	_, ts := testServer(t, testGraph(t))
	c := ts.Client()

	id1 := createSession(t, c, ts.URL, 0)
	id2 := createSession(t, c, ts.URL, 1)
	if id1 == id2 {
		t.Fatalf("duplicate session IDs: %q", id1)
	}
	var list []SessionInfo
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list: %d, %d entries", code, len(list))
	}
	// The list view reports the actors' published membership gauges: joins
	// already acknowledged must show up without a per-session mailbox trip.
	doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions/"+id1+"/join", NodeRequest{Node: 3}, nil)
	doJSON(t, c, http.MethodPost, ts.URL+"/v1/sessions/"+id1+"/join", NodeRequest{Node: 4}, nil)
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list after joins: %d", code)
	}
	for _, info := range list {
		if info.ID == id1 && info.Members != 2 {
			t.Errorf("list: session %s members = %d, want 2", id1, info.Members)
		}
	}
	doJSON(t, c, http.MethodDelete, ts.URL+"/v1/sessions/"+id1, nil, nil)
	id3 := createSession(t, c, ts.URL, 2)
	if id3 == id1 || id3 == id2 {
		t.Fatalf("session ID %q reused", id3)
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list after delete+create: %d, %d entries", code, len(list))
	}
}

// TestFailWithoutRecover covers the recover=false accumulate-only path and a
// later repair.
func TestFailWithoutRecover(t *testing.T) {
	_, ts := testServer(t, testGraph(t))
	c := ts.Client()
	id := createSession(t, c, ts.URL, 0)
	base := ts.URL + "/v1/sessions/" + id
	doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 3}, nil)

	no := false
	var fw FailuresWire
	if code := doJSON(t, c, http.MethodPost, base+"/fail",
		FailRequest{FailureSpec: FailureSpec{Links: []LinkWire{{U: 2, V: 5}}}, Recover: &no}, &fw); code != http.StatusAccepted {
		t.Fatalf("fail recover=false: status %d", code)
	}
	if len(fw.Applied) != 1 || fw.Recovered {
		t.Fatalf("fail recover=false: %+v", fw)
	}
	// The accumulated mask now blocks joins over that link: node 5 is
	// unreachable, so it parks (partitioned), not no_path.
	var ew ErrorWire
	if code := doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 5}, &ew); code != http.StatusConflict || ew.Code != "partitioned" {
		t.Fatalf("join over failed link: %d %q", code, ew.Code)
	}
	var rw RepairWire
	if code := doJSON(t, c, http.MethodPost, base+"/repair",
		FailureSpec{Links: []LinkWire{{U: 2, V: 5}}}, &rw); code != http.StatusOK || len(rw.Readmitted) != 1 {
		t.Fatalf("repair link: %d %+v", code, rw)
	}
}

// TestFailSourceRejectedCleanly is the HTTP-level regression for the
// source-failure corruption bug: POST /fail naming the source must return
// 409 source_failed AND leave the session fully usable — the mask untouched,
// degraded false, later joins succeeding. (It used to brick the session:
// the 409 came back but the mask had already swallowed the source, so every
// later join answered 409 partitioned.)
func TestFailSourceRejectedCleanly(t *testing.T) {
	_, ts := testServer(t, testGraph(t))
	c := ts.Client()
	id := createSession(t, c, ts.URL, 0)
	base := ts.URL + "/v1/sessions/" + id
	doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 3}, nil)

	for _, recover := range []bool{true, false} {
		var ew ErrorWire
		req := FailRequest{FailureSpec: FailureSpec{Nodes: []graph.NodeID{0}}, Recover: &recover}
		if code := doJSON(t, c, http.MethodPost, base+"/fail", req, &ew); code != http.StatusConflict || ew.Code != "source_failed" {
			t.Fatalf("fail source (recover=%v): %d %q, want 409 source_failed", recover, code, ew.Code)
		}
	}
	// The session must behave as if the bad requests never happened.
	var jw JoinWire
	if code := doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 1}, &jw); code != http.StatusOK {
		t.Fatalf("join after rejected source fail: status %d", code)
	}
	var snap struct {
		Degraded bool `json:"degraded"`
	}
	if code := doJSON(t, c, http.MethodGet, base, nil, &snap); code != http.StatusOK || snap.Degraded {
		t.Fatalf("session after rejected source fail: status %d degraded=%v, want 200 false", code, snap.Degraded)
	}
}

// TestFailUnknownLinkRefused: a fail or repair naming a link the topology
// lacks (0-3 is no edge of testGraph), alone or beside a real one, is refused
// with unknown_edge before it reaches the session, which stays healthy.
func TestFailUnknownLinkRefused(t *testing.T) {
	_, ts := testServer(t, testGraph(t))
	c := ts.Client()
	id := createSession(t, c, ts.URL, 0)
	base := ts.URL + "/v1/sessions/" + id
	doJSON(t, c, http.MethodPost, base+"/join", NodeRequest{Node: 3}, nil)

	absent := []LinkWire{{U: 0, V: 3}}
	withReal := []LinkWire{{U: 1, V: 2}, {U: 3, V: 0}}
	for _, recover := range []bool{true, false} {
		for _, links := range [][]LinkWire{absent, withReal} {
			var ew ErrorWire
			req := FailRequest{FailureSpec: FailureSpec{Links: links}, Recover: &recover}
			if code := doJSON(t, c, http.MethodPost, base+"/fail", req, &ew); code != http.StatusBadRequest || ew.Code != "unknown_edge" {
				t.Fatalf("fail %v (recover=%v): %d %q, want 400 unknown_edge", links, recover, code, ew.Code)
			}
		}
	}
	var ew ErrorWire
	if code := doJSON(t, c, http.MethodPost, base+"/repair", FailureSpec{Links: absent}, &ew); code != http.StatusBadRequest || ew.Code != "unknown_edge" {
		t.Fatalf("repair %v: %d %q, want 400 unknown_edge", absent, code, ew.Code)
	}
	var snap struct {
		Degraded bool `json:"degraded"`
	}
	if code := doJSON(t, c, http.MethodGet, base, nil, &snap); code != http.StatusOK || snap.Degraded {
		t.Fatalf("session after refused link failures: status %d degraded=%v, want 200 false", code, snap.Degraded)
	}
}
