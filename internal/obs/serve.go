package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
)

// Server exposes a registry (and any attached traces) over HTTP:
//
//	/metrics        Prometheus text exposition
//	/statz          JSON metric summaries (histograms as percentile rows)
//	/tracez         JSON dump of the attached event-trace rings
//	/debug/pprof/*  standard net/http/pprof handlers
//
// The endpoint is strictly opt-in: nothing in the pipeline starts one.
// Scrapes never block the pipeline — every read is an atomic load or a
// scrape-time stats snapshot.
type Server struct {
	reg *Registry

	mu     sync.Mutex
	traces map[string]*Trace

	srv *http.Server
	ln  net.Listener
}

// NewServer returns a server (handler only; not listening) for r. A nil
// r serves an empty registry.
func NewServer(r *Registry) *Server {
	if r == nil {
		r = NewRegistry("obs")
	}
	return &Server{reg: r, traces: make(map[string]*Trace)}
}

// AddTrace attaches a named trace ring set to /tracez.
func (s *Server) AddTrace(name string, t *Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces[name] = t
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WriteProm(w)
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteStatz(w)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.mu.Lock()
		names := make([]string, 0, len(s.traces))
		for name := range s.traces {
			names = append(names, name)
		}
		traces := make(map[string]*Trace, len(s.traces))
		for name, t := range s.traces {
			traces[name] = t
		}
		s.mu.Unlock()
		sort.Strings(names)
		fmt.Fprintln(w, "{")
		for i, name := range names {
			fmt.Fprintf(w, "%q: ", name)
			_ = traces[name].WriteJSON(w)
			if i < len(names)-1 {
				fmt.Fprintln(w, ",")
			}
		}
		fmt.Fprintln(w, "}")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintf(w, "obs: %s\n/metrics /statz /tracez /debug/pprof/\n", s.reg.Name())
	})
	return mux
}

// Serve starts an HTTP observability endpoint for r on addr and returns
// once the listener is bound. Use Addr to discover the bound address
// (addr may use port 0) and Close to shut it down.
func Serve(addr string, r *Registry) (*Server, error) {
	s := NewServer(r)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address, or "" if not serving.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. Safe to call on a handler-only server.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
