"""The HEALERS toolkit facade.

One object wiring the whole pipeline together, in the order the paper's
demonstrations walk it:

* **demo 3.1** — :meth:`list_libraries`, :meth:`scan_library`,
  :meth:`declaration_file`;
* **demo 3.2** — :meth:`scan_application`;
* **Fig. 2**   — :meth:`extract_prototypes`, :meth:`run_fault_injection`,
  :meth:`derive_robust_api`;
* **Fig. 1/3** — :meth:`generate_wrapper`, :meth:`wrapper_source`,
  :meth:`preload`;
* **demo 3.3** — :meth:`profile_run`, :meth:`collect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps import SimApp, standard_system
from repro.apps.base import AppResult, run_app
from repro.headers.corpus import parse_include_tree, render_include_tree
from repro.headers.model import Prototype
from repro.injection import (
    Campaign,
    CampaignResult,
    CampaignStats,
    ProbeCache,
    ProbeExecutor,
)
from repro.injection.campaign import ProbeObserver
from repro.libc import LibcRegistry, math_registry, standard_registry
from repro.linker import DynamicLinker
from repro.manpages import load_corpus
from repro.manpages.model import ManPage
from repro.objfile import ObjFormatError, SimELF, SimSystem
from repro.profiling import ProfileDocument
from repro.robust import RobustAPIDocument, derive_api
from repro.robust.derivation import FunctionDerivation
from repro.security.policy import SecurityPolicy
from repro.telemetry import DocumentReady, EventBus, MetricsSink, Sink
from repro.wrappers import (
    BuiltWrapper,
    PRESETS,
    WrapperFactory,
    WrapperSpec,
    default_generator_registry,
    render_library,
    units_for,
)


@dataclass
class LibraryScan:
    """Demo 3.1 output: one library's function inventory."""

    path: str
    soname: str
    functions: List[str]
    prototyped: int

    @property
    def function_count(self) -> int:
        return len(self.functions)


@dataclass
class ApplicationScan:
    """Demo 3.2 output: an application's linkage inventory."""

    path: str
    dynamically_linked: bool
    needed: List[str] = field(default_factory=list)
    resolved_libraries: Dict[str, str] = field(default_factory=dict)
    missing_libraries: List[str] = field(default_factory=list)
    undefined_functions: List[str] = field(default_factory=list)
    wrappable: List[str] = field(default_factory=list)
    unwrappable: List[str] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Share of imported functions the toolkit can wrap."""
        if not self.undefined_functions:
            return 1.0
        return len(self.wrappable) / len(self.undefined_functions)


class Healers:
    """The toolkit: scanning, injection, derivation, generation."""

    def __init__(
        self,
        system: Optional[SimSystem] = None,
        linker: Optional[DynamicLinker] = None,
        registry: Optional[LibcRegistry] = None,
        manpages: Optional[Dict[str, ManPage]] = None,
        security_policy: Optional[SecurityPolicy] = None,
        telemetry=None,
    ):
        #: whether the registry is the stock libc (then process-pool
        #: campaign workers can rebuild it from the module-level factory)
        self._registry_is_standard = registry is None
        self.registry = registry or standard_registry()
        #: secondary wrappable libraries by soname (libm out of the box)
        self.extra_registries: Dict[str, LibcRegistry] = {}
        math = math_registry()
        self.extra_registries[math.library_name] = math
        if system is None or linker is None:
            system_, linker_ = standard_system(self.registry)
            system = system if system is not None else system_
            linker = linker if linker is not None else linker_
        self.system = system
        self.linker = linker
        self.manpages = manpages if manpages is not None else load_corpus()
        self.security_policy = security_policy or SecurityPolicy()
        self._generator_registry = default_generator_registry(
            self.security_policy
        )
        #: populated by derive_robust_api / build_declaration_document
        self.api_document: Optional[RobustAPIDocument] = None
        self.derivations: Dict[str, FunctionDerivation] = {}
        self.campaign_result: Optional[CampaignResult] = None
        #: execution accounting of the most recent campaign
        self.campaign_stats: Optional[CampaignStats] = None
        #: the toolkit-level telemetry pipeline: every wrapper library
        #: built here and every campaign emits into this bus (plus the
        #: per-library StateSink that keeps Fig. 5 intact)
        self.telemetry_settings = None
        self.telemetry_sinks: List[Sink] = []
        self.telemetry: EventBus = EventBus()
        if telemetry is not None:
            self.configure_telemetry(telemetry)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def configure_telemetry(self, settings) -> EventBus:
        """Install a :class:`~repro.core.config.TelemetrySettings`.

        Rebuilds the toolkit bus over the configured sinks; wrapper
        libraries built afterwards share those sinks (each keeps its own
        ``StateSink``).  Accepts a live :class:`EventBus` as well.
        """
        if isinstance(settings, EventBus):
            self.telemetry_settings = None
            self.telemetry = settings
            self.telemetry_sinks = settings.sinks
            return settings
        settings.validate()
        self.telemetry_settings = settings
        self.telemetry_sinks = settings.build_sinks()
        self.telemetry = EventBus(capacity=settings.batch_size,
                                  sinks=self.telemetry_sinks)
        return self.telemetry

    def add_telemetry_sink(self, sink: Sink) -> Sink:
        """Attach one more sink to the toolkit pipeline."""
        self.telemetry_sinks.append(sink)
        self.telemetry.subscribe(sink)
        return sink

    def metrics_sink(self) -> Optional[MetricsSink]:
        """The first configured MetricsSink, if any."""
        for sink in self.telemetry_sinks:
            if isinstance(sink, MetricsSink):
                return sink
        return None

    def close_telemetry(self) -> None:
        """Flush and close the toolkit bus and every attached sink."""
        self.telemetry.close()

    # ------------------------------------------------------------------
    # demo 3.1: library scanning
    # ------------------------------------------------------------------

    def list_libraries(self) -> List[LibraryScan]:
        """All shared objects on the system with their function lists."""
        return [self.scan_library(image.path)
                for image in self.system.list_libraries()]

    def scan_library(self, path: str) -> LibraryScan:
        """Parse one shared object and list the functions it defines."""
        image = SimELF.parse(self.system.read(path), path=path)
        if not image.is_shared_object:
            raise ObjFormatError(f"{path} is not a shared object")
        prototyped = sum(
            1 for name in image.defined if self._registry_with(name)
        )
        return LibraryScan(
            path=path,
            soname=image.soname,
            functions=list(image.defined),
            prototyped=prototyped,
        )

    def declaration_file(self, path: str) -> str:
        """The XML declaration file for a library (demo 3.1's artifact)."""
        scan = self.scan_library(path)
        if scan.soname == self.registry.library_name:
            document = self.build_declaration_document()
        elif scan.soname in self.extra_registries:
            document = RobustAPIDocument.build(
                self.extra_registries[scan.soname], self.manpages
            )
        else:
            # a library we have no implementations for: names only
            document = RobustAPIDocument(library=scan.soname)
        return document.to_xml()

    def _registry_with(self, name: str) -> Optional[LibcRegistry]:
        """The registry (primary or extra) defining ``name``, if any."""
        if name in self.registry:
            return self.registry
        for registry in self.extra_registries.values():
            if name in registry:
                return registry
        return None

    # ------------------------------------------------------------------
    # demo 3.2: application scanning
    # ------------------------------------------------------------------

    def list_applications(self) -> List[str]:
        return [image.path for image in self.system.list_applications()]

    def scan_application(self, path: str) -> ApplicationScan:
        """Extract linked libraries and undefined functions of a binary."""
        image = SimELF.parse(self.system.read(path), path=path)
        if not image.is_executable:
            raise ObjFormatError(f"{path} is not an executable")
        scan = ApplicationScan(
            path=path,
            dynamically_linked=image.is_dynamically_linked,
            needed=list(image.needed),
            undefined_functions=sorted(image.undefined),
        )
        for soname in image.needed:
            found = self.system.find_by_soname(soname)
            if found is None:
                scan.missing_libraries.append(soname)
            else:
                scan.resolved_libraries[soname] = found.path
        for name in scan.undefined_functions:
            if self._registry_with(name) is not None:
                scan.wrappable.append(name)
            else:
                scan.unwrappable.append(name)
        return scan

    # ------------------------------------------------------------------
    # Fig. 2: prototypes → injection → robust API
    # ------------------------------------------------------------------

    def extract_prototypes(self) -> List[Prototype]:
        """Parse the simulated /usr/include tree (the pipeline's stage 1).

        The headers are rendered from all wrappable libraries'
        declarations (libc + libm out of the box) and then *parsed back*
        with the C declaration parser, so this stage runs the same code a
        native deployment would run over /usr/include.
        """
        prototypes = list(self.registry.prototypes())
        for registry in self.extra_registries.values():
            prototypes.extend(registry.prototypes())
        tree = render_include_tree(prototypes)
        return parse_include_tree(tree)

    def run_fault_injection(
        self,
        functions: Optional[Iterable[str]] = None,
        fuel: Optional[int] = None,
        jobs: int = 1,
        backend: str = "serial",
        cache: "Optional[str | ProbeCache]" = None,
        resume: bool = False,
        observer: Optional[ProbeObserver] = None,
        watchdog: Optional[float] = None,
        unit_retries: int = 2,
    ) -> CampaignResult:
        """Run the automated fault-injection experiments.

        The default is the paper's serial sweep.  ``jobs``/``backend``
        fan the probe matrix out over a worker pool, and ``cache`` (a
        path or a live :class:`ProbeCache`) makes runs resumable: with
        ``resume=True`` verdicts cached for this library release are
        reused and only new probes execute.  A path-backed cache is
        written back after the run.  ``watchdog`` bounds each work
        unit's host wall time (hung probes become HANG verdicts) and
        ``unit_retries`` bounds resubmission after a worker death.
        Execution accounting lands in :attr:`campaign_stats`.
        """
        kwargs = {}
        if fuel is not None:
            kwargs["fuel"] = fuel
        campaign = Campaign(self.registry, manpages=self.manpages,
                            observer=observer, **kwargs)

        cache_path = cache if isinstance(cache, str) else ""
        if isinstance(cache, ProbeCache):
            probe_cache: Optional[ProbeCache] = cache
        elif cache_path:
            if resume:
                probe_cache = ProbeCache.load_or_create(cache_path,
                                                        self.registry)
            else:
                probe_cache = ProbeCache.for_registry(self.registry)
        else:
            probe_cache = None

        executor = ProbeExecutor(
            campaign,
            jobs=jobs,
            backend=backend,
            cache=probe_cache,
            registry_factory=(standard_registry
                              if self._registry_is_standard else None),
            bus=self.telemetry,
            watchdog=watchdog,
            unit_retries=unit_retries,
        )
        self.campaign_result = executor.run(functions)
        self.campaign_stats = executor.stats
        if cache_path and probe_cache is not None:
            probe_cache.save(cache_path)
        self.telemetry.flush()
        return self.campaign_result

    def derive_robust_api(
        self, result: Optional[CampaignResult] = None
    ) -> RobustAPIDocument:
        """Derive weakest robust types and build the declaration document."""
        result = result or self.campaign_result
        if result is None:
            result = self.run_fault_injection()
        self.derivations = derive_api(result, self.registry, self.manpages)
        self.api_document = RobustAPIDocument.build(
            self.registry, self.manpages, self.derivations
        )
        return self.api_document

    def build_declaration_document(self) -> RobustAPIDocument:
        """The declaration document, with derivations when available."""
        if self.api_document is None:
            self.api_document = RobustAPIDocument.build(
                self.registry, self.manpages, self.derivations or None
            )
        return self.api_document

    def build_introspected_document(self) -> RobustAPIDocument:
        """The *full-coverage* declaration document (ROADMAP item 5).

        Every primary-registry function receives an introspection-derived
        :class:`~repro.robust.introspect.CheckPlan` — campaign verdicts
        where :attr:`derivations` has them, static role/ctype derivation
        everywhere else.  The document becomes the toolkit's active one,
        so wrappers built afterwards (robustness, hardened, …) check all
        functions instead of the probed subset.
        """
        self.api_document = RobustAPIDocument.build_introspected(
            self.registry, self.manpages, self.derivations or None
        )
        return self.api_document

    def all_check_plans(self):
        """Check plans across every wrappable library (libc + libm).

        The primary registry folds in campaign derivations when
        available; extra registries get static plans.  This is the
        123/123 coverage set the ``derive-checks`` subcommand reports.
        """
        from repro.robust.introspect import derive_check_plans

        plans = derive_check_plans(self.registry, self.manpages,
                                   self.derivations or None)
        for registry in self.extra_registries.values():
            plans.update(derive_check_plans(registry, self.manpages))
        return plans

    # ------------------------------------------------------------------
    # wrapper generation (Fig. 1 / Fig. 3)
    # ------------------------------------------------------------------

    def _factory(self) -> WrapperFactory:
        return WrapperFactory(
            self.registry,
            self.build_declaration_document(),
            generators=self._generator_registry,
        )

    def resolve_spec(self, wrapper: "str | WrapperSpec") -> WrapperSpec:
        if isinstance(wrapper, WrapperSpec):
            return wrapper
        try:
            return PRESETS[wrapper]
        except KeyError:
            raise KeyError(
                f"unknown wrapper preset {wrapper!r}; "
                f"known: {', '.join(sorted(PRESETS))}"
            ) from None

    def generate_wrapper(
        self,
        wrapper: "str | WrapperSpec",
        functions: Optional[Sequence[str]] = None,
    ) -> BuiltWrapper:
        """Build a wrapper library (not yet preloaded).

        The library's bus carries its own ``StateSink`` plus whatever
        sinks :meth:`configure_telemetry` installed, so one JSONL trace
        or metrics view spans every wrapper the toolkit builds.
        """
        capacity = (self.telemetry_settings.batch_size
                    if self.telemetry_settings is not None else 256)
        return self._factory().build_library(
            self.linker, self.resolve_spec(wrapper), functions=functions,
            sinks=self.telemetry_sinks, bus_capacity=capacity,
        )

    def preload(
        self,
        wrapper: "str | WrapperSpec",
        functions: Optional[Sequence[str]] = None,
    ) -> BuiltWrapper:
        """Build a wrapper library and LD_PRELOAD it into the linker."""
        built = self.generate_wrapper(wrapper, functions)
        self.linker.preload(built.library)
        return built

    def clear_preloads(self) -> None:
        self.linker.clear_preloads()

    def wrapper_source(
        self,
        wrapper: "str | WrapperSpec",
        functions: Optional[Sequence[str]] = None,
    ) -> str:
        """The generated C source of a wrapper library (Fig. 3 text)."""
        spec = self.resolve_spec(wrapper)
        factory = self._factory()
        names = list(functions) if functions else self.registry.names()
        units, _ = units_for(factory, names)
        generators = factory.resolve_spec(spec)
        return render_library(units, generators,
                              soname=f"libhealers_{spec.name}.so")

    # ------------------------------------------------------------------
    # demo 3.3: profiling runs
    # ------------------------------------------------------------------

    def profile_run(
        self,
        app: SimApp,
        argv: Optional[List[str]] = None,
        stdin: bytes = b"",
        files: Optional[Dict[str, bytes]] = None,
        wrapper: "str | WrapperSpec" = "profiling",
    ) -> Tuple[AppResult, ProfileDocument]:
        """Run an app under a fresh wrapper; return run + XML document."""
        built = self.preload(wrapper)
        try:
            result = run_app(app, self.linker, argv=argv, stdin=stdin,
                             files=files)
        finally:
            self.linker.clear_preloads()
        document = ProfileDocument.from_state(
            built.state, application=app.name,
            wrapper_type=built.spec.name,
            library=self.registry.library_name,
        )
        # the rendered document enters the pipeline too, so a configured
        # CollectionSink ships it (batched) without any extra plumbing
        self.telemetry.emit(
            DocumentReady(application=app.name, xml=document.to_xml())
        )
        self.telemetry.flush()
        return result, document

    def run(self, app: SimApp, **kwargs) -> AppResult:
        """Run an app under the current linker configuration."""
        return run_app(app, self.linker, **kwargs)

    # ------------------------------------------------------------------
    # declarative deployment (the Fig. 1 per-app wrapper selection)
    # ------------------------------------------------------------------

    def apply_deployment(self, config, app_path: str) -> List[BuiltWrapper]:
        """Preload the wrappers a deployment file assigns to one app.

        Returns the built wrappers (empty when no policy applies);
        callers pair this with :meth:`clear_preloads` between apps.
        """
        from repro.core.config import DeploymentConfig

        assert isinstance(config, DeploymentConfig)
        if config.recovery is not None:
            # deployment-selected recovery: the generator registry holds
            # a live reference to the policy object, so mutating it here
            # reaches every wrapper built afterwards
            self.security_policy.recovery = config.recovery
        policy = config.policy_for(app_path)
        if policy is None:
            return []
        return [
            self.preload(preset, policy.functions or None)
            for preset in policy.wrappers
        ]
