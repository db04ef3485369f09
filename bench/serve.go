package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/server"
)

// serveEnv is a running smrp-serve control plane inside this process: a
// registry, the HTTP server over it, and a real loopback listener.
type serveEnv struct {
	reg  *server.Registry
	url  string
	stop context.CancelFunc
	done chan error
}

func startServe(g *graph.Graph) (*serveEnv, error) {
	reg := server.NewRegistry(g, server.RegistryConfig{})
	srv := server.New(reg, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &serveEnv{reg: reg, url: "http://" + ln.Addr().String(), stop: cancel, done: make(chan error, 1)}
	go func() { e.done <- srv.Serve(ctx, ln) }()
	return e, nil
}

// close drains the server and waits until it has stopped.
func (e *serveEnv) close() error {
	e.stop()
	return <-e.done
}

// hangUp closes the clients' kept-alive connections.
func (d *httpDriver) hangUp() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

// httpDriver is a set of closed-loop HTTP clients, one keep-alive connection
// each; session i belongs to client i mod len(clients).
type httpDriver struct {
	env     *serveEnv
	clients []*http.Client
	ids     []string
	refused atomic.Int64 // 429, 503 and 5xx answers
}

func newHTTPDriver(env *serveEnv, sessions, clients int) *httpDriver {
	d := &httpDriver{env: env, ids: make([]string, sessions)}
	for i := 0; i < clients; i++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return d
}

// call sends one request for session sess and decodes a 2xx answer into v.
func (d *httpDriver) call(sess int, method, path, body string, v interface{}) error {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, d.env.url+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.clients[sess%len(d.clients)].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			d.refused.Add(1)
		}
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

func (d *httpDriver) open(sess int, source graph.NodeID) error {
	var info server.SessionInfo
	err := d.call(sess, http.MethodPost, "/v1/sessions", `{"source":`+strconv.Itoa(int(source))+`}`, &info)
	d.ids[sess] = info.ID
	return err
}

func (d *httpDriver) closeAll() {
	for i, id := range d.ids {
		if id != "" {
			_ = d.call(i, http.MethodDelete, "/v1/sessions/"+id, "", nil) // the registry is torn down with the environment anyway
			d.ids[i] = ""
		}
	}
}

func nodeBody(n graph.NodeID) string { return `{"node":` + strconv.Itoa(int(n)) + `}` }

func linkBody(l link) string {
	return `{"links":[{"u":` + strconv.Itoa(int(l.a)) + `,"v":` + strconv.Itoa(int(l.b)) + `}]}`
}

func (d *httpDriver) join(sess int, n graph.NodeID) (out, error) {
	var w server.JoinWire
	if err := d.call(sess, http.MethodPost, "/v1/sessions/"+d.ids[sess]+"/join", nodeBody(n), &w); err != nil {
		return out{}, err
	}
	return out{joins: []*core.JoinResult{{
		Member: w.Member, Merger: w.Merger, Connection: w.Connection, Delay: w.Delay,
		SPFDelay: w.SPFDelay, MergerSHR: w.MergerSHR, WithinBound: w.WithinBound, Reshaped: w.Reshaped,
	}}}, nil
}

func (d *httpDriver) joinBatch(int, []graph.NodeID) (out, error) {
	return out{}, fmt.Errorf("the HTTP API has no batch join")
}

func (d *httpDriver) leave(sess int, n graph.NodeID) error {
	return d.call(sess, http.MethodPost, "/v1/sessions/"+d.ids[sess]+"/leave", nodeBody(n), nil)
}

func (d *httpDriver) restore(sess int, l link) (out, error) {
	var w server.HealWire
	if err := d.call(sess, http.MethodPost, "/v1/sessions/"+d.ids[sess]+"/fail", linkBody(l), &w); err != nil {
		return out{}, err
	}
	return out{recovered: w.Recovered, disconnected: w.Disconnected, unrecovered: w.Unrecovered, readmitted: w.Readmitted}, nil
}

func (d *httpDriver) repair(sess int, l link) (out, error) {
	var w server.RepairWire
	if err := d.call(sess, http.MethodPost, "/v1/sessions/"+d.ids[sess]+"/repair", linkBody(l), &w); err != nil {
		return out{}, err
	}
	return out{readmitted: w.Readmitted, unrecovered: w.StillParked}, nil
}

func (d *httpDriver) get(sess int) (out, error) {
	var w struct {
		core.Snapshot
	}
	if err := d.call(sess, http.MethodGet, "/v1/sessions/"+d.ids[sess], "", &w); err != nil {
		return out{}, err
	}
	return out{snap: &w.Snapshot}, nil
}

// batchSizeMean reads the mean size of the actor mailbox's coalesced join
// batches off /metrics.
func (d *httpDriver) batchSizeMean() (float64, error) {
	resp, err := d.clients[0].Get(d.env.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var sum, count float64
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "smrp_actor_join_batch_size_sum":
			sum, _ = strconv.ParseFloat(f[1], 64)
		case "smrp_actor_join_batch_size_count":
			count, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("no smrp_actor_join_batch_size in /metrics")
	}
	return sum / count, nil
}

// actorDriver reaches the same sessions through their mailboxes, without
// HTTP: the layer below the handlers.
type actorDriver struct {
	env    *serveEnv
	actors []*server.Actor
}

func newActorDriver(env *serveEnv, sessions int) *actorDriver {
	return &actorDriver{env: env, actors: make([]*server.Actor, sessions)}
}

func (d *actorDriver) open(sess int, source graph.NodeID) error {
	a, err := d.env.reg.Create(server.CreateSessionRequest{Source: source})
	d.actors[sess] = a
	return err
}

func (d *actorDriver) closeAll() {
	for i, a := range d.actors {
		if a != nil {
			_ = d.env.reg.Delete(a.ID) // only fails for an ID already gone
			d.actors[i] = nil
		}
	}
}

func (d *actorDriver) join(sess int, n graph.NodeID) (out, error) {
	r, err := d.actors[sess].Join(context.Background(), n)
	return out{joins: []*core.JoinResult{r}}, err
}

func (d *actorDriver) joinBatch(int, []graph.NodeID) (out, error) {
	return out{}, fmt.Errorf("actors have no batch join")
}

func (d *actorDriver) leave(sess int, n graph.NodeID) error {
	return d.actors[sess].Leave(context.Background(), n)
}

func (d *actorDriver) restore(sess int, l link) (out, error) {
	r, err := d.actors[sess].Fail(context.Background(), []failure.Failure{failure.LinkDown(l.a, l.b)}, true)
	return healOut(r), err
}

func (d *actorDriver) repair(sess int, l link) (out, error) {
	r, err := d.actors[sess].Repair(context.Background(), []failure.Failure{failure.LinkDown(l.a, l.b)})
	if err != nil {
		return out{}, err
	}
	return out{readmitted: r.Readmitted, unrecovered: r.StillParked}, nil
}

func (d *actorDriver) get(sess int) (out, error) {
	r, err := d.actors[sess].Snapshot(context.Background())
	if err != nil {
		return out{}, err
	}
	return out{snap: &r.Snap}, nil
}
