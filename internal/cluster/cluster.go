package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"ptrack/internal/store"
)

// Config configures one replica's view of the cluster.
type Config struct {
	// Self is this replica's node name; it should appear in Nodes once
	// membership is set (a replica removed from the ring keeps serving
	// the state protocol but owns no sessions).
	Self string
	// Nodes is the initial membership; may be empty and set later via
	// SetNodes (the bootstrap path when peer addresses are only known
	// after listeners bind).
	Nodes []Node
	// Replicas is how many ring owners hold each session's snapshot
	// (primary + backups). Zero takes 2: one copy to run from, one to
	// survive losing the owner. Clamped to cluster size at use.
	Replicas int
	// HTTPClient carries all peer traffic (state protocol + proxying).
	// Nil gets a pooled client with sane timeouts.
	HTTPClient *http.Client
	Logger     *slog.Logger
}

// Cluster is one replica's membership view: the current ring plus a
// remote-store client per peer. Ring swaps are atomic; lookups are
// lock-free on the ring snapshot.
type Cluster struct {
	self     string
	replicas int
	hc       *http.Client
	log      *slog.Logger

	mu      sync.RWMutex
	ring    *Ring
	remotes map[string]*RemoteStore // node name → client, rebuilt on URL change
}

// New builds a cluster view. An empty membership is valid: the replica
// owns every session until SetNodes installs a real ring.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self node name is required")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: Replicas = %d, want >= 1", cfg.Replicas)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 15 * time.Second}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	c := &Cluster{
		self:     cfg.Self,
		replicas: cfg.Replicas,
		hc:       hc,
		log:      log,
		remotes:  map[string]*RemoteStore{},
	}
	if err := c.SetNodes(cfg.Nodes); err != nil {
		return nil, err
	}
	return c, nil
}

// Self reports this replica's node name.
func (c *Cluster) Self() string { return c.self }

// Replicas reports the configured snapshot copies per session.
func (c *Cluster) Replicas() int { return c.replicas }

// Ring returns the current ring snapshot (immutable; never nil).
func (c *Cluster) Ring() *Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring
}

// SetNodes atomically replaces the membership. Peer store clients are
// rebuilt for nodes whose URL changed and dropped for departed nodes.
func (c *Cluster) SetNodes(nodes []Node) error {
	ring, err := NewRing(nodes)
	if err != nil {
		return err
	}
	remotes := make(map[string]*RemoteStore, len(nodes))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range ring.Nodes() {
		if n.Name == c.self {
			continue
		}
		if old, ok := c.remotes[n.Name]; ok && old.base == n.URL {
			remotes[n.Name] = old
			continue
		}
		rs, err := NewRemoteStore(n.URL, WithRemoteHTTPClient(c.hc))
		if err != nil {
			return fmt.Errorf("cluster: node %q: %w", n.Name, err)
		}
		remotes[n.Name] = rs
	}
	c.ring = ring
	c.remotes = remotes
	return nil
}

// Owner resolves a session's primary owner under the current ring.
// selfOwned is true when this replica should run the session — also
// the case on an empty ring, where there is nobody else.
func (c *Cluster) Owner(id string) (owner Node, selfOwned bool) {
	r := c.Ring()
	n, ok := r.Owner(id)
	if !ok {
		return Node{Name: c.self}, true
	}
	return n, n.Name == c.self
}

// Owners resolves the replica set holding a session's snapshot.
func (c *Cluster) Owners(id string) []Node {
	return c.Ring().Owners(id, c.replicas)
}

// remote returns the state client for a peer, or nil for self/unknown
// nodes.
func (c *Cluster) remote(name string) *RemoteStore {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.remotes[name]
}

// peers lists the remote clients of every current member except self.
func (c *Cluster) peers() []*RemoteStore {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*RemoteStore, 0, len(c.remotes))
	for _, r := range c.remotes {
		out = append(out, r)
	}
	return out
}

// Store wraps a replica's local store into the cluster-routed one the
// session hub checkpoints through: Save replicates a snapshot to every
// ring owner of the session, Load falls back to peers on a local miss,
// Delete clears every copy. The wrapper is what makes migration and
// failover invisible to the hub — it keeps calling the same interface
// it used against a single dir store.
func (c *Cluster) Store(local store.Store) store.Store {
	return &routedStore{c: c, local: local}
}

type routedStore struct {
	c     *Cluster
	local store.Store
}

// Save writes the snapshot to every owner under the current ring —
// local when this replica is one, PUT to the peer otherwise. One
// durable copy counts as success (a down backup must not fail a
// checkpoint); zero copies is an error. When the ring no longer makes
// this replica an owner, the local copy is dropped after the remote
// writes succeed — this is the handoff step of migration.
func (s *routedStore) Save(session string, blob []byte) error {
	owners := s.c.Owners(session)
	if len(owners) == 0 {
		return s.local.Save(session, blob)
	}
	var saved int
	var errs []error
	selfOwns := false
	for _, n := range owners {
		if n.Name == s.c.self {
			selfOwns = true
			if err := s.local.Save(session, blob); err != nil {
				errs = append(errs, err)
			} else {
				saved++
			}
			continue
		}
		r := s.c.remote(n.Name)
		if r == nil {
			errs = append(errs, fmt.Errorf("cluster: no client for owner %q", n.Name))
			continue
		}
		if err := r.Save(session, blob); err != nil {
			errs = append(errs, err)
		} else {
			saved++
		}
	}
	if saved == 0 {
		// Last resort: park the snapshot locally so the state is not
		// lost while every owner is unreachable; peers find it via the
		// Load sweep.
		if selfOwns || s.local.Save(session, blob) != nil {
			return errors.Join(errs...)
		}
		s.c.log.Warn("cluster: all owners unreachable, snapshot parked locally",
			"session", session, "err", errors.Join(errs...))
		return nil
	}
	if !selfOwns {
		if err := s.local.Delete(session); err != nil {
			s.c.log.Warn("cluster: dropping migrated local snapshot failed",
				"session", session, "err", err)
		}
	}
	for _, err := range errs {
		s.c.log.Warn("cluster: snapshot replication incomplete", "session", session, "err", err)
	}
	return nil
}

// Load looks for a snapshot wherever the ring says it could be: the
// local store first (the common case for an owner), then the other
// owners, then — because a ring change may have happened without a
// clean handoff (a killed replica) — every remaining peer. A genuine
// miss everywhere is ErrNotFound; any outage along the way reports as
// an error so the hub's degradation path (fresh session + error
// metric) fires instead of silently forking state.
func (s *routedStore) Load(session string) ([]byte, error) {
	tried := map[string]bool{s.c.self: true}
	var errs []error
	if blob, err := s.local.Load(session); err == nil {
		return blob, nil
	} else if !errors.Is(err, store.ErrNotFound) {
		errs = append(errs, err)
	}
	for _, n := range s.c.Owners(session) {
		if tried[n.Name] {
			continue
		}
		tried[n.Name] = true
		if blob, err := s.loadFrom(n.Name, session); err == nil {
			return blob, nil
		} else if !errors.Is(err, store.ErrNotFound) {
			errs = append(errs, err)
		}
	}
	for _, n := range s.c.Ring().Nodes() {
		if tried[n.Name] {
			continue
		}
		tried[n.Name] = true
		if blob, err := s.loadFrom(n.Name, session); err == nil {
			return blob, nil
		} else if !errors.Is(err, store.ErrNotFound) {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("cluster: load %q: %w", session, errors.Join(errs...))
	}
	return nil, fmt.Errorf("%w: %q", store.ErrNotFound, session)
}

func (s *routedStore) loadFrom(name, session string) ([]byte, error) {
	r := s.c.remote(name)
	if r == nil {
		return nil, fmt.Errorf("%w: %q", store.ErrNotFound, session)
	}
	return r.Load(session)
}

// Delete clears the snapshot everywhere it could live — all peers, not
// just current owners, because stale copies survive ring changes. Peer
// failures are logged, not surfaced: the session has ended either way,
// and an unreachable peer's leftover snapshot is garbage, not state
// (it can only resurrect a session already marked ended, which End
// deletes again on the next pass).
func (s *routedStore) Delete(session string) error {
	err := s.local.Delete(session)
	for _, r := range s.c.peers() {
		if derr := r.Delete(session); derr != nil {
			s.c.log.Warn("cluster: peer snapshot delete failed", "session", session, "err", derr)
		}
	}
	return err
}

// List reports the local replica's snapshots only; cluster-wide
// enumeration is the operator's job via each replica's /v1/state.
func (s *routedStore) List() ([]string, error) {
	return s.local.List()
}

// discardHandler is a slog.Handler that drops everything (slog has no
// built-in discard handler until Go 1.24).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
