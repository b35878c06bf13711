package exp

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/core"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/host"
	"fastmatch/ldbc"
)

// Config scales the experiment suite. The defaults run the whole evaluation
// at laptop scale while preserving the paper's ratios: datasets keep the
// 1:3:10:60 scale-factor ladder, and the device keeps the paper's clock and
// latency ratios but shrinks BRAM (and the batch size No with it) so the
// partition-and-offload dynamics appear at these graph sizes — on the real
// 35 MB card none of the scaled-down CSTs would ever need partitioning,
// which would silence Figs. 8, 9, 10 and 13 entirely.
type Config struct {
	// BasePersons scales every dataset (persons at ScaleFactor 1).
	BasePersons int
	// Seed drives the generator.
	Seed int64
	// Timeout per baseline run; expiry renders as INF (paper: 3 hours).
	Timeout time.Duration
	// GPUMemBudget bounds GSI/GpSM intermediates; exceeding renders OOM.
	GPUMemBudget int64
	// BRAMBytes / BatchSize configure the scaled-down card.
	BRAMBytes int64
	BatchSize int
	// Queries filters which benchmark queries run (nil = experiment
	// defaults).
	Queries []string
}

// DefaultConfig returns the laptop-scale configuration the benchmarks use.
func DefaultConfig() Config {
	return Config{
		BasePersons:  200,
		Seed:         42,
		Timeout:      10 * time.Second,
		GPUMemBudget: 64 << 20,
		BRAMBytes:    256 << 10,
		BatchSize:    256,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BasePersons <= 0 {
		c.BasePersons = d.BasePersons
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
	if c.GPUMemBudget <= 0 {
		c.GPUMemBudget = d.GPUMemBudget
	}
	if c.BRAMBytes <= 0 {
		c.BRAMBytes = d.BRAMBytes
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	return c
}

// device returns the scaled-down card model.
func (c Config) device() fpgasim.Config {
	dev := fpgasim.DefaultConfig()
	dev.BRAMBytes = c.BRAMBytes
	dev.No = c.BatchSize
	return dev
}

// hostConfig returns a host pipeline configuration for the given kernel
// variant and CPU share.
func (c Config) hostConfig(v core.Variant, delta float64) host.Config {
	return host.Config{Device: c.device(), Variant: v, Delta: delta}
}

// queries resolves the query filter against defaults.
func (c Config) queries(defaults []string) ([]*graph.Query, error) {
	names := c.Queries
	if len(names) == 0 {
		names = defaults
	}
	out := make([]*graph.Query, 0, len(names))
	for _, n := range names {
		q, err := ldbc.QueryByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

var allQueryNames = []string{"q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"}

// dataset generates (and caches) a benchmark dataset by name.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*graph.Graph{}
)

func (c Config) dataset(name string) (*graph.Graph, error) {
	cfg, err := ldbc.Dataset(name)
	if err != nil {
		return nil, err
	}
	cfg.BasePersons = c.BasePersons
	cfg.Seed = c.Seed
	key := fmt.Sprintf("%s/%d/%d", name, c.BasePersons, c.Seed)
	dsMu.Lock()
	defer dsMu.Unlock()
	if g, ok := dsCache[key]; ok {
		return g, nil
	}
	g := ldbc.Generate(cfg)
	dsCache[key] = g
	return g, nil
}

// Runner regenerates one experiment.
type Runner func(Config) ([]Table, error)

var registry = map[string]Runner{}

func register(name string, r Runner) { registry[name] = r }

// Registry returns all experiment runners by name.
func Registry() map[string]Runner {
	out := make(map[string]Runner, len(registry))
	for k, v := range registry {
		out[k] = v
	}
	return out
}

// Names lists experiment names in a stable order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Run executes one named experiment.
func Run(name string, cfg Config) ([]Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg.withDefaults())
}
