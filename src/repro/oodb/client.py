"""Client façade and deployment builder for the replicated OODB."""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.base.library import BASEService
from repro.bft.client import Client
from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.net.simulator import Simulator
from repro.oodb.db import ThorDB
from repro.oodb.spec import (
    AbstractRef,
    AbstractValue,
    OODBAbstractSpec,
    OODBReply,
    OODB_OK,
    encode_classof,
    encode_del,
    encode_free,
    encode_get,
    encode_new,
    encode_set,
    is_read_only_op,
)
from repro.oodb.wrapper import OODBConformanceWrapper
from repro.util.errors import ReproError

ClientValue = Union[int, str, bytes, "AOid"]


class OODBError(ReproError):
    def __init__(self, status: int, context: str = "") -> None:
        super().__init__(f"OODB error {status}{': ' + context if context else ''}")
        self.status = status


class AOid:
    """Client-side wrapper for an abstract object id."""

    __slots__ = ("raw",)

    def __init__(self, raw: bytes) -> None:
        self.raw = raw

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AOid) and other.raw == self.raw

    def __hash__(self) -> int:
        # repro: allow[DET008] in-process dict key for the client's handle cache; never replicated
        return hash(self.raw)

    def __repr__(self) -> str:
        return f"AOid({self.raw.hex()})"


def _to_abstract(value: ClientValue) -> AbstractValue:
    if isinstance(value, AOid):
        return AbstractRef(value.raw)
    return value


def _from_abstract(value: AbstractValue) -> ClientValue:
    if isinstance(value, AbstractRef):
        return AOid(value.aoid)
    return value


class OODBClient:
    """Typed operations against the replicated database."""

    def __init__(self, bft_client: Client, timeout: float = 120.0) -> None:
        self.bft_client = bft_client
        self.timeout = timeout

    @property
    def root(self) -> AOid:
        from repro.oodb.spec import ROOT_AOID

        return AOid(ROOT_AOID)

    def _invoke(self, op: bytes) -> OODBReply:
        result = self.bft_client.invoke(
            op, read_only=is_read_only_op(op), timeout=self.timeout
        )
        reply = OODBReply.decode(result)
        if reply.status != OODB_OK:
            raise OODBError(reply.status)
        return reply

    def new(self, class_name: str) -> AOid:
        return AOid(self._invoke(encode_new(class_name)).aoid)

    def free(self, aoid: AOid) -> None:
        self._invoke(encode_free(aoid.raw))

    def set(self, aoid: AOid, name: str, value: ClientValue) -> None:
        self._invoke(encode_set(aoid.raw, name, _to_abstract(value)))

    def delete_attr(self, aoid: AOid, name: str) -> None:
        self._invoke(encode_del(aoid.raw, name))

    def get(self, aoid: AOid) -> Dict[str, ClientValue]:
        reply = self._invoke(encode_get(aoid.raw))
        return {name: _from_abstract(value) for name, value in reply.attrs.items()}

    def class_of(self, aoid: AOid) -> str:
        return self._invoke(encode_classof(aoid.raw)).class_name

    def find(self, class_name: str):
        """All live objects of ``class_name``, in stable (creation-index)
        order — identical at every replica despite heap-order divergence."""
        from repro.oodb.spec import encode_find

        reply = self._invoke(encode_find(class_name))
        return [AOid(raw) for raw in reply.matches]


class OODBDeployment:
    """A replicated OODB where every replica runs the *same* nondeterministic
    ThorDB implementation (the paper-abstract scenario)."""

    def __init__(
        self,
        config: Optional[BFTConfig] = None,
        seed: int = 0,
        num_objects: int = 128,
        arity: int = 8,
    ) -> None:
        self.config = config or BFTConfig()
        sim = Simulator(seed=seed)
        seeds = {rid: 1000 + i for i, rid in enumerate(self.config.replica_ids)}

        def service_factory_for(replica_id: str):
            def make(disk: dict) -> BASEService:
                impl = ThorDB(disk=disk, seed=seeds[replica_id])
                wrapper = OODBConformanceWrapper(
                    impl, OODBAbstractSpec(num_objects), disk
                )
                return BASEService(wrapper, sim.clock, arity=arity)

            return make

        self.cluster = Cluster(service_factory_for, config=self.config, sim=sim)

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    def client(self, client_id: str) -> OODBClient:
        return OODBClient(self.cluster.client(client_id))

    def wrapper(self, replica_id: str) -> OODBConformanceWrapper:
        service = self.cluster.service(replica_id)
        assert isinstance(service, BASEService)
        wrapper = service.wrapper
        assert isinstance(wrapper, OODBConformanceWrapper)
        return wrapper
