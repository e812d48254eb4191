"""Group communication system (GCS).

A virtual-synchrony-flavoured group communication substrate modelled on
Transis [Amir, Dolev, Kramer, Malki; FTCS'92], providing exactly the
contract the VoD paper relies on (its Section 5.3):

1. a *group abstraction* — named multicast groups that processes join and
   leave, addressable without knowing member identities;
2. a *membership service* — every connected member learns each membership
   change through totally-ordered per-group views;
3. *reliable multicast* — FIFO-per-sender delivery to all view members,
   with a flush protocol that equalizes message delivery before a view
   change is installed (virtual synchrony);
4. *open groups* — non-members may send a message to a group (the VoD
   client contacts the abstract server group this way).

The implementation runs one GCS daemon (:class:`GcsEndpoint`) per node
over unreliable datagrams; loss is masked by NACK-driven retransmission
and positive-ack stability tracking.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".domain": ("GcsDomain",),
    ".endpoint": ("GcsEndpoint", "GroupHandle", "GroupListener"),
    ".view": ("ProcessId", "View"),
})
