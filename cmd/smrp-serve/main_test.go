package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"smrp/internal/core"
)

// postJSON posts a JSON body and returns the status code.
func postJSON(client *http.Client, url string, body any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// TestServeSmoke boots the daemon on an ephemeral port, drives a workload of
// sessions, joins and a failure burst over HTTP, checks health, then cancels
// the run context (the SIGTERM path) and requires a clean drain with no
// leaked goroutines.
func TestServeSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx,
			[]string{"-addr", "127.0.0.1:0", "-nodes", "80", "-seed", "9", "-generation", "3"},
			func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-runErr:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 15 * time.Second}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}

	// Workload: 10 sessions x 10 joins = 100 joins, then a failure burst
	// with recovery on each session.
	const sessions, joinsPer = 10, 10
	type sessionInfo struct {
		ID string `json:"id"`
	}
	ids := make([]string, sessions)
	for i := range ids {
		b, _ := json.Marshal(map[string]any{"source": i})
		resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		var info sessionInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated || info.ID == "" {
			t.Fatalf("create %d: status %d, info %+v, err %v", i, resp.StatusCode, info, err)
		}
		ids[i] = info.ID
	}
	joined := 0
	for i, id := range ids {
		for n := 1; n <= joinsPer; n++ {
			node := (i + n*7) % 80
			if node == i {
				continue
			}
			code, err := postJSON(client, fmt.Sprintf("%s/v1/sessions/%s/join", base, id),
				map[string]any{"node": node})
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			switch code {
			case http.StatusOK:
				joined++
			case http.StatusConflict, http.StatusUnprocessableEntity:
				// duplicate node choice / out of delay bound — fine
			default:
				t.Fatalf("join session %s node %d: status %d", id, node, code)
			}
		}
	}
	if joined < sessions*joinsPer/2 {
		t.Fatalf("only %d joins succeeded", joined)
	}
	for i, id := range ids {
		victim := (i + 40) % 80
		if victim == i {
			continue
		}
		code, err := postJSON(client, fmt.Sprintf("%s/v1/sessions/%s/fail", base, id),
			map[string]any{"nodes": []int{victim}})
		if err != nil {
			t.Fatalf("fail: %v", err)
		}
		if code != http.StatusOK && code != http.StatusConflict {
			t.Fatalf("fail session %s node %d: status %d", id, victim, code)
		}
	}

	// Metrics reflect the workload.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("smrp_sessions 10")) {
		t.Fatalf("metrics missing session gauge:\n%s", body)
	}

	// SIGTERM path: cancel the run context and require a clean drain.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v, want clean drain", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not drain after context cancellation")
	}

	tr.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after drain: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeRefusesBadDThresh: a -dthresh no session can be created from
// (negative) or that flag.Float64 parses but the bound cannot use (NaN) is
// refused at start-up, before the daemon listens.
func TestServeRefusesBadDThresh(t *testing.T) {
	for _, v := range []string{"-1", "NaN"} {
		ctx, cancel := context.WithCancel(context.Background())
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-nodes", "20", "-dthresh", v},
			func(addr string) {
				t.Errorf("-dthresh %s: listening on %s", v, addr)
				cancel() // drain, so that the test fails instead of hanging
			})
		cancel()
		if !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("-dthresh %s: err = %v, want ErrBadConfig", v, err)
		}
	}
}
