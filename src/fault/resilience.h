/**
 * @file
 * Aggregate resilience configuration for a cluster.
 *
 * One struct bundling every knob of the mechanisms that *respond* to
 * injected faults: LB health checks, the EJB->DB retry policy, the
 * DB-tier circuit breaker, and the per-attempt DB deadline / pool
 * acquire timeout. armedFeatures() arms the machinery only for a
 * non-empty fault schedule (a replicated tier or admission control
 * arms parts of it): a healthy run must stay byte-identical to
 * pre-fault builds, so with the machinery off the cluster schedules
 * no probes, arms no timeouts, and draws nothing extra from any RNG
 * stream.
 */

#ifndef JASIM_FAULT_RESILIENCE_H
#define JASIM_FAULT_RESILIENCE_H

#include "fault/circuit_breaker.h"
#include "fault/health.h"
#include "fault/retry.h"

namespace jasim {

/** Everything configurable about the cluster's failure handling. */
struct ResilienceConfig
{
    HealthConfig health;
    RetryConfig retry;
    CircuitBreakerConfig breaker;

    /**
     * Per-attempt EJB->DB deadline (seconds), measured from the
     * moment a pooled connection is granted. Values <= 0 fall back
     * to 2.0 when the machinery is active: with lossy links a
     * deadline is what reclaims connections whose query or response
     * vanished on the wire.
     */
    double db_timeout_s = 2.0;

    /**
     * Bound on connection-pool queueing (seconds) once acquires are
     * bounded; the only source of the pools' acquire timeout. <= 0
     * keeps the legacy wait-forever behaviour.
     */
    double pool_acquire_timeout_s = 1.0;
};

} // namespace jasim

#endif // JASIM_FAULT_RESILIENCE_H
