// Package warm is what remains of the warm-start analysis cache, kept
// so existing callers still compile. Its exact, WCET-scaled and
// size-hint tiers were retired: none of them paid on any benchmark
// workload, and the service's content cache (service/cache.Analyzer) is
// the one analysis memo. A Cache now holds nothing, and Analyzer returns
// the analyzer it is given.
package warm

import (
	"mamps/internal/obs"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// AnalyzeFunc is the signature of statespace.Analyze and of the analyzers
// a Cache wraps.
type AnalyzeFunc func(*sdf.Graph, statespace.Options) (statespace.Result, error)

// Cache is an empty pass-through; create with New.
type Cache struct{}

// New returns a pass-through cache. Both arguments are ignored.
func New(int, *obs.WarmStats) *Cache { return &Cache{} }

// Analyzer returns inner unchanged.
func (*Cache) Analyzer(inner AnalyzeFunc) AnalyzeFunc { return inner }
