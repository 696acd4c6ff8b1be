package simnet

import (
	"time"
)

// Server models a work-conserving service station with a fixed number of
// parallel workers, a bounded ingress queue, and a per-job service time
// supplied by the caller. It is the queueing core of the controller
// pipeline model: the ONOS profile is a fast Server, the ODL profile a slow
// one, and Fig. 4e's collapse emerges from the bounded queue plus
// backlog-dependent service inflation.
type Server struct {
	workers int
	busy    int
	queue   *Queue

	// InflateAt is the backlog size beyond which service times inflate
	// linearly (modeling memory bloat / GC pressure in an overwhelmed
	// JVM controller, §VII-B1). Zero disables inflation.
	InflateAt int
	// InflateSlope is the added service-time fraction per queued job
	// beyond InflateAt (e.g. 0.01 adds 1% per excess job).
	InflateSlope float64

	completed int64
	// finish completes jobs; it pools no more jobs than there are workers.
	finish *Jobs[Job]
}

// Job is one unit of Server work.
type Job interface {
	// Service returns the job's base service time. It is evaluated when
	// the job starts, not when it is queued, so state-dependent costs
	// like GC-pause stalls apply at execution time.
	Service() time.Duration
	// Done runs when the job completes.
	Done()
}

// NewServer creates a server with the given parallelism and ingress queue
// capacity (<=0 for unbounded).
func NewServer(eng *Engine, workers, queueCap int) *Server {
	if workers < 1 {
		workers = 1
	}
	s := &Server{workers: workers, queue: NewQueue(queueCap)}
	s.finish = NewJobs(eng, s.complete)
	return s
}

// Submit offers a job. It reports false if the ingress queue rejected the
// job.
func (s *Server) Submit(job Job) bool {
	if s.busy < s.workers {
		s.start(job)
		return true
	}
	return s.queue.Offer(job)
}

// Backlog returns the number of jobs waiting (not in service).
func (s *Server) Backlog() int { return s.queue.Len() }

// Completed returns the number of jobs finished.
func (s *Server) Completed() int64 { return s.completed }

// Drops returns the number of jobs rejected by the ingress queue.
func (s *Server) Drops() int64 { return s.queue.Drops() }

// Saturated reports whether all workers are busy and the queue is nonempty.
func (s *Server) Saturated() bool { return s.busy == s.workers && s.queue.Len() > 0 }

func (s *Server) start(job Job) {
	s.busy++
	service := job.Service()
	if s.InflateAt > 0 && s.queue.Len() > s.InflateAt {
		excess := float64(s.queue.Len() - s.InflateAt)
		service += time.Duration(float64(service) * s.InflateSlope * excess)
	}
	s.finish.Schedule(service, job)
}

func (s *Server) complete(job Job) {
	s.busy--
	s.completed++
	job.Done()
	if next, ok := s.queue.Poll(); ok {
		s.start(next.(Job))
	}
}

// Queue models a bounded FIFO ingress queue in front of a server (e.g. a
// controller's socket buffer). When the queue is full, Offer reports false,
// modeling TCP zero-window back-pressure.
type Queue struct {
	items []any
	cap   int
	drops int64
}

// NewQueue returns a queue with the given capacity; capacity <= 0 means
// unbounded.
func NewQueue(capacity int) *Queue {
	return &Queue{cap: capacity}
}

// Offer appends item, reporting false (and counting a drop) when full.
func (q *Queue) Offer(item any) bool {
	if q.cap > 0 && len(q.items) >= q.cap {
		q.drops++
		return false
	}
	q.items = append(q.items, item)
	return true
}

// Poll removes and returns the head, or (nil, false) when empty.
func (q *Queue) Poll() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	item := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return item, true
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Drops returns the number of rejected offers.
func (q *Queue) Drops() int64 { return q.drops }
