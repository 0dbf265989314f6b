package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
)

// RouteInfo describes one registered API route. The table below is the
// single source of truth for the mux: Handler registers exactly these
// patterns, the OpenAPI coverage test asserts every one of them is
// documented in api/openapi.yaml, and wrong-method fallbacks are
// derived per path.
type RouteInfo struct {
	// Method is the HTTP method; Pattern the Go 1.22 mux path pattern
	// ("/v1/datasets/{name}").
	Method  string
	Pattern string
	// Endpoint is the metrics label the route's requests count under.
	Endpoint string
}

// apiRoute pairs a RouteInfo with its handler.
type apiRoute struct {
	RouteInfo
	handler http.HandlerFunc
}

// apiRoutes is the server's full /v1 + /metrics surface.
func (s *Server) apiRoutes() []apiRoute {
	rt := func(method, pattern, endpoint string, h http.HandlerFunc) apiRoute {
		return apiRoute{RouteInfo{Method: method, Pattern: pattern, Endpoint: endpoint}, h}
	}
	return []apiRoute{
		rt("POST", "/v1/mine", "mine", s.handleMine),
		rt("POST", "/v1/explain", "explain", s.handleExplain),
		rt("POST", "/v1/ingest", "ingest", s.handleIngest),
		rt("GET", "/v1/datasets", "datasets", s.handleDatasets),
		rt("GET", "/v1/datasets/{name}", "datasets", s.handleDatasetDetail),
		rt("POST", "/v1/subscriptions", "subscriptions", s.handleSubscribe),
		rt("GET", "/v1/subscriptions", "subscriptions", s.handleSubscriptions),
		rt("GET", "/v1/subscriptions/{id}", "subscriptions", s.handleSubscriptionGet),
		rt("DELETE", "/v1/subscriptions/{id}", "subscriptions", s.handleSubscriptionDelete),
		rt("GET", "/v1/subscriptions/{id}/events", "events", s.handleSubscriptionEvents),
		rt("GET", "/metrics", "metrics", s.handleMetrics),
	}
}

// Routes returns the registered API surface (method + pattern), sorted
// by pattern then method — the contract the OpenAPI document must
// cover.
func (s *Server) Routes() []RouteInfo {
	var out []RouteInfo
	for _, rt := range s.apiRoutes() {
		out = append(out, rt.RouteInfo)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pattern != out[j].Pattern {
			return out[i].Pattern < out[j].Pattern
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// Handler returns the server's routing handler: every route from the
// table, a JSON 405 + Allow fallback for wrong methods on known paths,
// and the standard pprof handlers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	allow := make(map[string][]string)
	for _, rt := range s.apiRoutes() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
		allow[rt.Pattern] = append(allow[rt.Pattern], rt.Method)
	}
	// Method-less fallbacks catch wrong-method requests on the API
	// routes with a JSON 405 + Allow instead of the mux's plain-text
	// default (the method patterns above are more specific and win for
	// the allowed methods).
	for pattern, methods := range allow {
		sort.Strings(methods)
		mux.HandleFunc(pattern, s.methodNotAllowed(strings.Join(methods, ", ")))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// methodNotAllowed answers wrong-method requests on an API route with a
// JSON 405 envelope and the route's Allow header.
func (s *Server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		msg := fmt.Sprintf("method %s not allowed on %s; use %s", r.Method, r.URL.Path, allow)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{
			Error: errorBody{
				Code:    CodeMethodNotAllowed,
				Message: msg,
				Details: map[string]any{"allow": allow},
			},
		})
	}
}
