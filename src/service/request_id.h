// Request identity for the fleet (DESIGN.md §15).
//
// Every request entering the serving tier carries one id, minted by the
// first schemr process that sees it (coordinator, or a directly-hit
// replica) unless the client supplied a well-formed one. The coordinator
// forwards a *hop-suffixed* variant ("<base>-h<N>") on each backend
// attempt, so a failed-over request leaves distinguishable per-attempt
// records while every fragment — coordinator hop journal, replica trace,
// audit record — still joins back to the base id.
//
// Ids are deliberately austere: `[A-Za-z0-9-]` only, bounded length.
// Anything else offered by a client (oversized, control bytes, header
// injection attempts) is discarded and regenerated, never forwarded.

#ifndef SCHEMR_SERVICE_REQUEST_ID_H_
#define SCHEMR_SERVICE_REQUEST_ID_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace schemr {

/// Hard cap on any id the serving tier accepts or emits (hop suffix
/// included).
inline constexpr size_t kMaxRequestIdBytes = 64;

/// Cap on a *client-supplied* base id at the coordinator: strictly
/// smaller than kMaxRequestIdBytes so the hop suffix the coordinator
/// appends still validates at the replica.
inline constexpr size_t kMaxClientRequestIdBytes = 48;

/// The wire header, canonical capitalization (matching is
/// case-insensitive; HttpRequest lowercases names).
inline constexpr const char kRequestIdHeader[] = "X-Schemr-Request-Id";
inline constexpr const char kRequestIdHeaderLower[] = "x-schemr-request-id";

/// True iff `id` is non-empty, at most `max_bytes` long, and uses only
/// `[A-Za-z0-9-]`.
bool IsValidRequestId(std::string_view id,
                      size_t max_bytes = kMaxRequestIdBytes);

/// Mints a fresh id: time + pid + a process-wide counter, rendered in
/// the id alphabet. Unique within a fleet for any realistic horizon.
std::string MintRequestId();

/// The id forwarded on backend attempt number `hop` (0-based):
/// "<base>-h<hop>".
std::string HopRequestId(std::string_view base, int hop);

/// True when a recorded id belongs to request `base`: either the base
/// itself or one of its hop variants ("<base>-h<digits>").
bool RequestIdMatches(std::string_view base, std::string_view recorded);

}  // namespace schemr

#endif  // SCHEMR_SERVICE_REQUEST_ID_H_
