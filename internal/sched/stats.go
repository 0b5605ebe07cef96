package sched

import "distwalk/internal/congest"

// Stats is a snapshot of the scheduler's counters (see Scheduler.Stats).
// All member counts are requests; Batches counts executions.
type Stats struct {
	// Submitted counts requests admitted to a queue.
	Submitted uint64 `metric:"batch_submitted_total,counter"`
	// Rejected counts Submits refused with ErrQueueFull.
	Rejected uint64 `metric:"batch_rejected_total,counter"`
	// Cancelled counts members dropped from a pending batch because
	// their context was done before flush.
	Cancelled uint64 `metric:"batch_cancelled_total,counter"`
	// Aborted counts members completed with ErrBatchAborted (execution
	// failure or scheduler close).
	Aborted uint64 `metric:"batch_aborted_total,counter"`
	// Batches counts flushed batch executions; FlushBySize and
	// FlushByDelay attribute them to their trigger.
	Batches      uint64 `metric:"batches_total,counter"`
	FlushBySize  uint64 `metric:"batch_flushes_total{trigger=size},counter"`
	FlushByDelay uint64 `metric:"batch_flushes_total{trigger=delay},counter"`
	// Occupancy is the batch-size histogram: Occupancy[i] counts batches
	// that executed with i+1 members (length MaxBatch).
	Occupancy []uint64 `metric:"batch_size,histogram"`
	// BatchedWalks counts walks successfully executed inside batches
	// (every one delivered a result to its submitter); BatchCost sums
	// those batches' total simulated cost (walks, shared phases, traces).
	BatchedWalks uint64         `metric:"batched_walks_total,counter"`
	BatchCost    congest.Result `metric:"batch_"`
}

// AmortizedRounds returns the mean simulated rounds per batched walk —
// the number batching exists to push below the single-walk cost.
func (st Stats) AmortizedRounds() float64 {
	if st.BatchedWalks == 0 {
		return 0
	}
	return float64(st.BatchCost.Rounds) / float64(st.BatchedWalks)
}

// AmortizedMessages returns the mean simulated messages per batched walk.
func (st Stats) AmortizedMessages() float64 {
	if st.BatchedWalks == 0 {
		return 0
	}
	return float64(st.BatchCost.Messages) / float64(st.BatchedWalks)
}
