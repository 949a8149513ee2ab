#include "obs/profile.h"

#include <sstream>

#include "obs/json.h"

namespace f1::obs {

thread_local ProfileCollector *t_profileCollector = nullptr;

std::string
ExecutionProfile::toJson() const
{
    std::ostringstream os;
    os << "{\"label\": ";
    appendJsonString(os, label);
    os << ", \"prepare_ms\": "
       << prepareMs << ", \"execute_ms\": " << executeMs
       << ", \"op_kinds\": {";
    bool first = true;
    for (const auto &[name, s] : opKinds) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << name << "\": {\"count\": " << s.count
           << ", \"total_ms\": " << s.totalMs << "}";
    }
    os << "}, \"trace_ids\": [";
    first = true;
    for (uint64_t id : traceIds) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << hexId(id) << "\"";
    }
    os << "], \"ntt_forward\": " << nttForward
       << ", \"ntt_inverse\": " << nttInverse
       << ", \"key_switch_applies\": " << keySwitchApplies
       << ", \"basis_extends\": " << basisExtends
       << ", \"cache_hits\": " << cacheHits
       << ", \"cache_misses\": " << cacheMisses
       << ", \"encoding_cache_hits\": " << encodingCacheHits
       << ", \"encoding_cache_misses\": " << encodingCacheMisses
       << ", \"scratch_peak_words\": " << scratchPeakWords << "}";
    return os.str();
}

} // namespace f1::obs
