package serve

// Tenant identity and the tenant admin API.
//
// Identity: every inference request resolves its tenant from the
// X-Arlo-Tenant header first, then the body's "tenant" field, and falls
// back to the default tenant when neither is present — so pre-tenancy
// clients keep working byte-for-byte. Rejections by token-bucket
// admission map to HTTP 429 with a Retry-After header computed from the
// bucket's refill rate.
//
// Admin:
//
//	GET /v1/tenants       — every tenant's config
//	GET /v1/tenants/{id}  — one tenant's config and counters
//	PUT /v1/tenants/{id}  — create or live-update one tenant record
//
// All three answer 404 not_found on clusters running without a tenant
// registry: multi-tenancy is a construction-time opt-in, not something
// the admin API can switch on.

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"arlo/internal/tenant"
)

// ErrRateLimited is the admission-rejection sentinel surfaced as HTTP
// 429 rate_limited. Alias of the cluster/tenant sentinel so callers can
// match at whichever layer they hold.
var ErrRateLimited = tenant.ErrRateLimited

// TenantHeader is the request header carrying the tenant id; it takes
// precedence over the body field.
const TenantHeader = "X-Arlo-Tenant"

// TenantRecord is the admin API's view of one tenant: its config plus
// live admission counters.
type TenantRecord struct {
	tenant.Config
	// Admitted, Rejected and Dispatched are cumulative counters; zero on
	// PUT responses for a freshly created tenant.
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	Dispatched int64 `json:"dispatched"`
}

// TenantList is the reply of GET /v1/tenants.
type TenantList struct {
	Tenants []TenantRecord `json:"tenants"`
}

// registryOr404 returns the cluster's tenant registry, answering 404
// when multi-tenancy is disabled.
func (s *Server) registryOr404(w http.ResponseWriter) *tenant.Registry {
	reg := s.cluster.Tenants()
	if reg == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "multi-tenancy is not enabled")
	}
	return reg
}

func record(t *tenant.Tenant) TenantRecord {
	st := t.Stat()
	return TenantRecord{
		Config:     t.Config(),
		Admitted:   st.Admitted,
		Rejected:   st.Rejected,
		Dispatched: st.Dispatched,
	}
}

// handleTenants serves GET /v1/tenants: every tenant's record, sorted by
// id.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	reg := s.registryOr404(w)
	if reg == nil {
		return
	}
	stats := reg.Stats()
	out := TenantList{Tenants: make([]TenantRecord, 0, len(stats))}
	for _, st := range stats {
		if t, ok := reg.Lookup(st.ID); ok {
			out.Tenants = append(out.Tenants, record(t))
		}
	}
	writeJSON(w, out)
}

// handleTenant serves GET and PUT /v1/tenants/{id}.
func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/tenants/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such tenant")
		return
	}
	reg := s.registryOr404(w)
	if reg == nil {
		return
	}
	switch r.Method {
	case http.MethodGet:
		t, ok := reg.Lookup(id)
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound, "no such tenant: "+id)
			return
		}
		writeJSON(w, record(t))
	case http.MethodPut:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "read error")
			return
		}
		var cfg tenant.Config
		if err := decodeStrict(body, &cfg); err != nil {
			writeDecodeError(w, err)
			return
		}
		// The path is the identity; a body id may only agree with it.
		if cfg.ID == "" {
			cfg.ID = id
		} else if cfg.ID != id {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				"body id "+cfg.ID+" does not match path id "+id)
			return
		}
		if err := cfg.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
			return
		}
		writeJSON(w, record(reg.Put(cfg)))
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or PUT required")
	}
}

// retryAfterOf extracts the rate-limit retry hint from an error, 0 when
// absent — a reply carries it as retry_after_ns (Retry-After over HTTP).
func retryAfterOf(err error) time.Duration {
	var rl *tenant.RateLimitError
	if errors.As(err, &rl) {
		return rl.RetryAfter
	}
	return 0
}
