#include "pt/two_stage.h"

namespace hpmp
{

namespace
{

/** Cache-less port that records each reference instead of charging. */
struct RecordingPort : TwoStagePort
{
    SmallVec<VirtRef, 40> &refs;

    Fault
    charge(Addr spa, VirtRefKind kind, AccessType type, unsigned level)
    {
        refs.push_back({spa, kind, type == AccessType::Store, level});
        return Fault::None;
    }
};

} // namespace

TwoStageResult
walkTwoStage(PhysMem &mem, Addr vsatp_root, Addr hgatp_root, Addr gva,
             AccessType type, PrivMode priv, const TwoStageConfig &config)
{
    TwoStageResult result;
    RecordingPort port{{}, result.refs};
    static_cast<TwoStageWalk &>(result) = walkTwoStageWith(
        mem, port, vsatp_root, hgatp_root, gva, type, priv, config);
    return result;
}

const char *
toString(VirtFaultOrigin origin)
{
    switch (origin) {
      case VirtFaultOrigin::None:       return "none";
      case VirtFaultOrigin::GuestStage: return "guest-stage";
      case VirtFaultOrigin::GStage:     return "g-stage";
      case VirtFaultOrigin::Phys:       return "pmpte";
    }
    return "?";
}

} // namespace hpmp
