package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ptrack/internal/cluster"
	"ptrack/internal/wire"
)

const (
	// headerForwarded marks a proxied request with the relaying node's
	// name. Its presence stops a second hop: if two replicas disagree
	// about ownership mid-ring-change, the request is served where it
	// lands instead of ping-ponging (or, for an event subscription on a
	// non-owner, refused; see handleEvents).
	headerForwarded = "X-Ptrack-Forwarded"
	// headerShardOwner names the owning replica's base URL on proxied
	// responses, so clients and operators can see routing.
	headerShardOwner = "Shard-Owner"
)

// routeAway checks session ownership and, when the session belongs to
// another replica, proxies the request there, reporting true so the
// handler stops. Requests that already crossed one hop stay local — a
// disagreeing pair of rings must not loop a request forever.
func (s *Server) routeAway(w http.ResponseWriter, r *http.Request, id string) bool {
	c := s.cfg.Cluster
	if c == nil {
		return false
	}
	owner, selfOwned := c.Owner(id)
	if selfOwned || r.Header.Get(headerForwarded) != "" {
		return false
	}
	s.proxy(w, r, owner)
	return true
}

// proxy relays the request to the owning replica and streams the
// response back, flushing per chunk so proxied SSE streams stay live.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, owner cluster.Node) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, owner.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		s.reject(w, r, http.StatusBadGateway, "shard_unreachable",
			fmt.Sprintf("cannot reach shard owner %q", owner.Name), 0)
		return
	}
	out.Header = r.Header.Clone()
	out.Header.Set(headerForwarded, s.cfg.Cluster.Self())
	resp, err := s.proxyClient.Do(out)
	if err != nil {
		s.reject(w, r, http.StatusBadGateway, "shard_unreachable",
			fmt.Sprintf("shard owner %q unreachable", owner.Name), 0)
		return
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	h.Set(headerShardOwner, owner.URL)
	w.WriteHeader(resp.StatusCode)
	s.copyFlush(w, resp.Body)
}

// copyFlush streams body to w, re-arming the write deadline and
// flushing after every chunk — the shape a relayed SSE stream needs
// (io.Copy would buffer events and let the stream-long deadline lapse).
func (s *Server) copyFlush(w http.ResponseWriter, body io.Reader) {
	rc := http.NewResponseController(w)
	flusher, canFlush := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := body.Read(buf)
		if n > 0 {
			_ = rc.SetWriteDeadline(s.cfg.now().Add(s.cfg.WriteTimeout))
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// ringInfo is the GET /v1/cluster/ring body: enough for an operator or
// a convergence check to see what topology this replica is routing by.
type ringInfo struct {
	Self     string         `json:"self"`
	Version  string         `json:"version"`
	Replicas int            `json:"replicas"`
	Nodes    []cluster.Node `json:"nodes"`
}

// ringUpdate is the POST /v1/cluster/ring body.
type ringUpdate struct {
	Nodes []cluster.Node `json:"nodes"`
}

func (s *Server) ringInfo() ringInfo {
	c := s.cfg.Cluster
	ring := c.Ring()
	return ringInfo{
		Self:     c.Self(),
		Version:  ring.Version(),
		Replicas: c.Replicas(),
		Nodes:    ring.Nodes(),
	}
}

func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	s.setWriteDeadline(w)
	writeJSON(w, http.StatusOK, s.ringInfo())
}

// handleRingSet installs a new membership on this replica and migrates
// the sessions it no longer owns. The caller (an operator or the
// SIGHUP path in ptrack-serve) is responsible for posting the same
// membership to every replica; /v1/cluster/ring's version field is the
// convergence check.
func (s *Server) handleRingSet(w http.ResponseWriter, r *http.Request) {
	s.setWriteDeadline(w)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var upd ringUpdate
	if err := json.NewDecoder(body).Decode(&upd); err != nil {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error(), 0, -1)
		return
	}
	if err := s.SetRing(upd.Nodes); err != nil {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error(), 0, -1)
		return
	}
	writeJSON(w, http.StatusOK, s.ringInfo())
}

// SetRing atomically replaces the cluster membership and migrates
// state: live sessions this replica no longer owns are checkpointed
// and evicted (their snapshots land on the new owners because the
// eviction checkpoint routes under the new ring, and their SSE
// subscribers get a `moved` event instead of `end` so clients
// reconnect), then dormant local snapshots owned elsewhere are handed
// off the same way. Errors from the membership swap leave the old ring
// in place.
func (s *Server) SetRing(nodes []cluster.Node) error {
	c := s.cfg.Cluster
	if c == nil {
		return errors.New("server: not in cluster mode")
	}
	if err := c.SetNodes(nodes); err != nil {
		return err
	}
	s.migrate()
	return nil
}

// migrate moves every session the current ring assigns elsewhere: ring
// first, eviction second, so the eviction's final checkpoint routes to
// the new owners and clears the local copy.
func (s *Server) migrate() {
	c := s.cfg.Cluster
	var (
		wg    sync.WaitGroup
		sem   = make(chan struct{}, 8)
		moved int
	)
	for _, st := range s.hub.SessionStats() {
		id := st.ID
		owner, selfOwned := c.Owner(id)
		if selfOwned {
			continue
		}
		moved++
		// Mark before evicting: the eviction's end-of-stream fan-out
		// consumes the mark and closes subscribers with `moved`.
		s.broker.markMoved(id, owner.URL)
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			s.hub.Evict(id)
		}()
	}
	wg.Wait()
	// Dormant snapshots parked locally — from an earlier ring, or saved
	// here while their owners were down — get re-routed too: the
	// cluster store saves them to the current owners and deletes the
	// local copy.
	ids, err := s.localStore.List()
	if err != nil {
		s.cfg.Logger.Warn("migrate: list local store", "err", err)
		ids = nil
	}
	handedOff := 0
	for _, id := range ids {
		if _, selfOwned := c.Owner(id); selfOwned {
			continue
		}
		blob, err := s.localStore.Load(id)
		if err != nil {
			// Evicted concurrently with the sweep — its own checkpoint
			// already routed it.
			continue
		}
		if err := s.clusterStore.Save(id, blob); err != nil {
			s.cfg.Logger.Warn("migrate: hand off snapshot", "session", id, "err", err)
			continue
		}
		handedOff++
	}
	s.cfg.Logger.Info("ring installed",
		"version", c.Ring().Version(), "evicted", moved, "handed_off", handedOff)
}

// Kill abandons the server without a drain: the listener closes and
// open connections are torn down mid-stream, but the hub is NOT
// flushed — whatever wasn't checkpointed is lost, exactly like a
// crashed process. This is the failure the cluster e2e injects;
// production code wants Shutdown.
func (s *Server) Kill() {
	s.downMu.Lock()
	s.down = true
	s.downMu.Unlock()
	s.draining.Store(true)
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
	} else if s.ln != nil {
		_ = s.ln.Close()
	}
	s.cfg.Logger.Info("killed")
}
