package fpgasim

// Module is a pipelined hardware module. A fully pipelined loop with fill
// depth D and initiation interval II processes n items in D + II·n cycles;
// II is 1 when every iteration's memory accesses hit BRAM, and rises to the
// DRAM latency when they do not (the FAST-DRAM variant) or when an edge
// probe exceeds the port budget.
type Module struct {
	Depth int64
	II    int64
}

// Cycles returns the cost of streaming n items through the module; an idle
// module (n == 0) costs nothing.
func (m Module) Cycles(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return m.Depth + m.II*n
}

// Serial composes module timings executed one after another (the basic
// pipeline of Fig. 5(a)): the total is the sum.
func Serial(cycles ...int64) int64 {
	var total int64
	for _, c := range cycles {
		total += c
	}
	return total
}

// Concurrent composes module timings executed simultaneously via FIFOs
// (task parallelism, Fig. 5(b)/(c)): the group finishes with its slowest
// member.
func Concurrent(cycles ...int64) int64 {
	var max int64
	for _, c := range cycles {
		if c > max {
			max = c
		}
	}
	return max
}
