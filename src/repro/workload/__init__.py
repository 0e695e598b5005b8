"""Query workload generation (paper §3.4) + multi-tenant serving mixes."""

from .queries import (
    MixedQuery,
    Query,
    TenantMix,
    default_tenant_mixes,
    extract_query,
    generate_tenant_stream,
    generate_workload,
    permuted_instance,
)

__all__ = [
    "MixedQuery",
    "Query",
    "TenantMix",
    "default_tenant_mixes",
    "extract_query",
    "generate_tenant_stream",
    "generate_workload",
    "permuted_instance",
]
