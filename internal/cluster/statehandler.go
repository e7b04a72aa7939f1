package cluster

import (
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"ptrack/internal/store"
	"ptrack/internal/wire"
)

// DefaultMaxBlobBytes caps a PUT /v1/state/{id} body. Tracker
// snapshots are tens of kilobytes; the cap only has to stop abuse, not
// be tight.
const DefaultMaxBlobBytes = 16 << 20

// StateHandler serves a local store.Store over the cluster state
// protocol:
//
//	GET    /v1/state          → {"sessions":["id", ...]}
//	GET    /v1/state/{id}     → snapshot blob (application/octet-stream)
//	PUT    /v1/state/{id}     → store the body as the snapshot
//	DELETE /v1/state/{id}     → drop the snapshot (idempotent)
//
// {id} is the URL-safe base64 of the session ID, matching RemoteStore.
// Errors carry the serving layer's JSON envelope; a genuine miss is
// 404 + code "not_found" so the client can distinguish it from a
// routing mistake. The endpoint is cluster-internal: it has no
// authentication and must only be reachable on the peer network
// (docs/CLUSTER.md).
type StateHandler struct {
	st  store.Store
	max int64
	mux *http.ServeMux
}

// NewStateHandler wraps a local store. maxBlobBytes <= 0 takes
// DefaultMaxBlobBytes.
func NewStateHandler(st store.Store, maxBlobBytes int64) *StateHandler {
	if maxBlobBytes <= 0 {
		maxBlobBytes = DefaultMaxBlobBytes
	}
	h := &StateHandler{st: st, max: maxBlobBytes, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /v1/state", h.list)
	h.mux.HandleFunc("GET /v1/state/{id}", h.load)
	h.mux.HandleFunc("PUT /v1/state/{id}", h.save)
	h.mux.HandleFunc("DELETE /v1/state/{id}", h.delete)
	h.mux.HandleFunc("/v1/state", h.badMethod)
	h.mux.HandleFunc("/v1/state/{id}", h.badMethod)
	return h
}

// ServeHTTP implements http.Handler.
func (h *StateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *StateHandler) badMethod(w http.ResponseWriter, r *http.Request) {
	wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeBadRequest,
		fmt.Sprintf("method %s not allowed on the state endpoint", r.Method), 0, -1)
}

// sessionID recovers the session ID from the path, or writes a 400.
func (h *StateHandler) sessionID(w http.ResponseWriter, r *http.Request) (string, bool) {
	raw, err := base64.RawURLEncoding.DecodeString(r.PathValue("id"))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "state ID is not URL-safe base64", 0, -1)
		return "", false
	}
	return string(raw), true
}

func (h *StateHandler) list(w http.ResponseWriter, r *http.Request) {
	ids, err := h.st.List()
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "listing snapshots failed", 0, -1)
		return
	}
	if ids == nil {
		ids = []string{}
	}
	sort.Strings(ids)
	wire.WriteJSON(w, http.StatusOK, stateList{Sessions: ids})
}

func (h *StateHandler) load(w http.ResponseWriter, r *http.Request) {
	id, ok := h.sessionID(w, r)
	if !ok {
		return
	}
	blob, err := h.st.Load(id)
	switch {
	case errors.Is(err, store.ErrNotFound):
		wire.WriteError(w, http.StatusNotFound, wire.CodeNotFound, "no snapshot for this session", 0, -1)
	case err != nil:
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "loading snapshot failed", 0, -1)
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(blob)
	}
}

func (h *StateHandler) save(w http.ResponseWriter, r *http.Request) {
	id, ok := h.sessionID(w, r)
	if !ok {
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.max))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			wire.WriteError(w, http.StatusRequestEntityTooLarge, wire.CodeBodyTooLarge,
				fmt.Sprintf("snapshot exceeds %d bytes", h.max), 0, -1)
			return
		}
		wire.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "reading snapshot body failed", 0, -1)
		return
	}
	if err := h.st.Save(id, blob); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "saving snapshot failed", 0, -1)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *StateHandler) delete(w http.ResponseWriter, r *http.Request) {
	id, ok := h.sessionID(w, r)
	if !ok {
		return
	}
	if err := h.st.Delete(id); err != nil {
		wire.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, "deleting snapshot failed", 0, -1)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
