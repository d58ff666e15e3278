package dist

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// collective kinds tracked by the profiler.
const (
	kindBarrier = iota
	kindAllreduce
	kindAllreduceShared
	kindIAllreduceShared
	kindAllreduceSharedF32
	kindIAllreduceSharedF32
	kindAllreduceSharedI8
	kindIAllreduceSharedI8
	kindBcast
	kindReduce
	kindAllgather
	kindSend
	kindRecv
	kindCount
)

// sharedKind returns the profile kind of the shared allreduce with the
// given base (kindAllreduceShared or kindIAllreduceShared) at tier t:
// the blocking/nonblocking pairs are laid out in tier order above.
func sharedKind(base int, t Tier) int { return base + 2*int(t) }

var kindNames = [kindCount]string{
	"barrier", "allreduce", "allreduce_shared", "iallreduce_shared",
	"allreduce_shared_f32", "iallreduce_shared_f32",
	"allreduce_shared_i8", "iallreduce_shared_i8",
	"bcast", "reduce", "allgather", "send", "recv",
}

// profile counts collective invocations (per world, all ranks; one
// collective call by P ranks counts P times).
type profile struct {
	calls [kindCount]atomic.Int64
	words [kindCount]atomic.Int64
}

func (p *profile) record(kind int, words int) {
	p.calls[kind].Add(1)
	p.words[kind].Add(int64(words))
}

// ProfileEntry reports the usage of one collective type.
type ProfileEntry struct {
	// Name is the collective ("allreduce", "bcast", ...).
	Name string
	// Calls is the total number of per-rank invocations.
	Calls int64
	// Words is the total payload words passed in (per-rank sum; not
	// the modeled network words, which live in the cost counters).
	Words int64
}

// entries returns per-collective usage statistics, sorted by call
// count (descending, ties by name). Entries with zero calls are
// omitted.
func (p *profile) entries() []ProfileEntry {
	var out []ProfileEntry
	for k := 0; k < kindCount; k++ {
		calls := p.calls[k].Load()
		if calls == 0 {
			continue
		}
		out = append(out, ProfileEntry{
			Name:  kindNames[k],
			Calls: calls,
			Words: p.words[k].Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Calls != out[j].Calls {
			return out[i].Calls > out[j].Calls
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// table renders the profile as a small table.
func (p *profile) table() string {
	entries := p.entries()
	if len(entries) == 0 {
		return "(no collectives recorded)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %14s\n", "collective", "calls", "payload words")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-18s %10d %14d\n", e.Name, e.Calls, e.Words)
	}
	return b.String()
}
