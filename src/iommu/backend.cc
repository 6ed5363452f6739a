/**
 * @file
 * Backend name tables and the factory.
 */

#include "iommu/backend.hh"

#include "iommu/backend_smmu.hh"
#include "iommu/backend_vtd.hh"

namespace damn::iommu {

const char *
backendKindName(BackendKind k)
{
    switch (k) {
      case BackendKind::Vtd:
        return "vtd";
      case BackendKind::SmmuV3:
        return "smmuv3";
    }
    return "?";
}

bool
backendFromName(const std::string &name, BackendKind *out)
{
    for (const BackendKind k : {BackendKind::Vtd, BackendKind::SmmuV3}) {
        if (name == backendKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

std::unique_ptr<IommuBackend>
makeBackend(BackendKind kind, sim::Context &ctx)
{
    switch (kind) {
      case BackendKind::Vtd:
        return std::make_unique<VtdBackend>(ctx);
      case BackendKind::SmmuV3:
        return std::make_unique<SmmuV3Backend>(ctx);
    }
    return nullptr;
}

} // namespace damn::iommu
