package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"colarm"
	"colarm/internal/standing"
)

// openAPIOperations reads api/openapi.yaml and returns the set of
// "METHOD /path" operations it documents. The scan is deliberately
// shallow — top-level keys under "paths:" at one indent level, HTTP
// method keys at the next — which is exactly the shape the document
// keeps (scripts/check_openapi.py validates the rest of it).
func openAPIOperations(t *testing.T) map[string]bool {
	t.Helper()
	path := filepath.Join("..", "..", "api", "openapi.yaml")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening OpenAPI document: %v", err)
	}
	defer f.Close()

	methods := map[string]bool{
		"get": true, "put": true, "post": true, "delete": true,
		"options": true, "head": true, "patch": true, "trace": true,
	}
	ops := make(map[string]bool)
	inPaths := false
	current := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indent := len(line) - len(strings.TrimLeft(line, " "))
		switch {
		case indent == 0:
			inPaths = trimmed == "paths:"
		case inPaths && indent == 2 && strings.HasPrefix(trimmed, "/") && strings.HasSuffix(trimmed, ":"):
			current = strings.TrimSuffix(trimmed, ":")
		case inPaths && indent == 4 && current != "":
			key := strings.TrimSuffix(trimmed, ":")
			if methods[key] {
				ops[strings.ToUpper(key)+" "+current] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no operations found in api/openapi.yaml")
	}
	return ops
}

// TestOpenAPIRouteCoverage asserts the OpenAPI document and the mux
// route table describe exactly the same surface: every registered
// route is documented, and nothing is documented that isn't served.
func TestOpenAPIRouteCoverage(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	documented := openAPIOperations(t)
	served := make(map[string]bool)
	for _, rt := range s.Routes() {
		key := rt.Method + " " + rt.Pattern
		served[key] = true
		if !documented[key] {
			t.Errorf("route %q is served but missing from api/openapi.yaml", key)
		}
	}
	for op := range documented {
		if !served[op] {
			t.Errorf("operation %q is documented but not served", op)
		}
	}
}

// openAPISchemaProperties reads api/openapi.yaml and returns, per
// schema under components.schemas, the names under its "properties:" —
// the same shallow, indentation-keyed scan as openAPIOperations.
func openAPISchemaProperties(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "api", "openapi.yaml"))
	if err != nil {
		t.Fatalf("opening OpenAPI document: %v", err)
	}
	props := make(map[string][]string)
	top, schema, inSchemas, inProps := "", "", false, false
	for _, line := range strings.Split(string(doc), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		key, _, isKey := strings.Cut(trimmed, ":")
		switch indent := len(line) - len(strings.TrimLeft(line, " ")); {
		case indent == 0:
			top, inSchemas = key, false
		case indent == 2:
			inSchemas = top == "components" && key == "schemas"
		case !inSchemas:
		case indent == 4:
			schema, inProps = key, false
		case indent == 6:
			inProps = key == "properties"
		case indent == 8 && inProps && isKey:
			props[schema] = append(props[schema], key)
		}
	}
	return props
}

// jsonFieldNames lists the member names encoding/json gives a struct
// type, embedded structs flattened as it flattens them.
func jsonFieldNames(typ reflect.Type) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case name == "-":
		case f.Anonymous && name == "" && f.Type.Kind() == reflect.Struct:
			names = append(names, jsonFieldNames(f.Type)...)
		case !f.IsExported():
		case name == "":
			names = append(names, f.Name)
		default:
			names = append(names, name)
		}
	}
	return names
}

// TestOpenAPISchemaCoverage holds each documented schema to the one Go
// type that serves it: the schema's property names are exactly the JSON
// member names of the type, so neither can gain, lose or rename a field
// without the other. There is one type per schema to check because the
// facade types are the wire types.
func TestOpenAPISchemaCoverage(t *testing.T) {
	documented := openAPISchemaProperties(t)
	for schema, v := range map[string]any{
		"Rule":             colarm.Rule{},
		"Stats":            colarm.Stats{},
		"Estimate":         colarm.PlanEstimate{},
		"Staleness":        colarm.Staleness{},
		"UnitCosts":        colarm.UnitCosts{},
		"Track":            standing.Track{},
		"Crossing":         standing.Crossing{},
		"Event":            standing.Event{},
		"MineRequest":      mineRequest{},
		"SubscribeRequest": subscribeRequest{},
	} {
		want := append([]string(nil), documented[schema]...)
		got := jsonFieldNames(reflect.TypeOf(v))
		if len(want) == 0 {
			t.Errorf("schema %s: not found in api/openapi.yaml", schema)
			continue
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("schema %s and %T disagree:\n openapi: %v\n      go: %v", schema, v, want, got)
		}
	}
}

// TestRoutesRegistered asserts every table entry is actually reachable
// through Handler() — a route that 404s or 405s under its own declared
// method means the table and the mux have drifted.
func TestRoutesRegistered(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, rt := range s.Routes() {
		path := rt.Pattern
		path = strings.ReplaceAll(path, "{name}", "salary")
		path = strings.ReplaceAll(path, "{id}", "sub-0")
		if rt.Endpoint == "events" {
			path += "?wait=1ms"
		}
		req := httptest.NewRequest(rt.Method, path, strings.NewReader("{}"))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code == http.StatusMethodNotAllowed || w.Code == http.StatusNotImplemented {
			t.Errorf("%s %s: got %d, route not wired", rt.Method, rt.Pattern, w.Code)
		}
		if rt.Method == "GET" && rt.Endpoint != "subscriptions" && rt.Endpoint != "events" && w.Code != http.StatusOK {
			t.Errorf("%s %s: got %d, want 200 (body %s)", rt.Method, path, w.Code, w.Body.String())
		}
	}
}

// TestAllowHeaderOnWrongMethod pins the 405 contract: the Allow header
// lists every method the path serves.
func TestAllowHeaderOnWrongMethod(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	req := httptest.NewRequest("PATCH", "/v1/subscriptions", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", w.Code)
	}
	if got := w.Header().Get("Allow"); got != "GET, POST" {
		t.Fatalf("Allow = %q, want %q", got, "GET, POST")
	}
	var er errorResponse
	if err := decodeJSON(w, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeMethodNotAllowed || er.Error.Details["allow"] != "GET, POST" {
		t.Fatalf("envelope = %+v", er)
	}
}

func decodeJSON(w *httptest.ResponseRecorder, v any) error {
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		return fmt.Errorf("content-type %q", ct)
	}
	return json.Unmarshal(w.Body.Bytes(), v)
}
